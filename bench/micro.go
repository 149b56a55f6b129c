package main

import (
	"time"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/quantile"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/tdgraph"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/wire"
	synthetic "tributarydelta/internal/workload"
)

// Micro-metrics: single functions of the lower layers, replaying inputs the
// traced TD runner captured from one real epoch (its frames, the sketches in
// them, its links) rather than synthetic ones.

// microRounds is how many times each replay loops over the captured epoch;
// the reported value is the median round's per-item cost.
const microRounds = 21

// callsPerRound repeats a replay that is a single call, so one round is long
// against the clock's resolution.
const callsPerRound = 64

// contribK is the runner's contributing-Count sketch size and the Count
// synopsis size (the standard Count bit vector of the paper's Figure 3).
const contribK = 40

// batchLimit seals a replayed batch datagram the way the loopback data plane
// does: just under the largest UDP payload.
const batchLimit = 65000

// perItem times fn, which processes items items, microRounds times and
// returns the median per-item cost in nanoseconds.
func perItem(items int, fn func()) float64 {
	if items == 0 {
		return 0
	}
	costs := make([]float64, microRounds)
	for i := range costs {
		start := time.Now()
		fn()
		costs[i] = float64(time.Since(start).Nanoseconds()) / float64(items)
	}
	return median(costs)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// microMetrics replays the captured epoch of spec (the standard TD
// configuration) through the lower layers' public functions.
func microMetrics(spec deploySpec, captured []capturedFrame) map[string]float64 {
	out := map[string]float64{}

	// One frame per sender: a broadcast appears once per receiver.
	var frames [][]byte
	seen := map[int]bool{}
	for _, c := range captured {
		if !seen[c.from] {
			seen[c.from] = true
			frames = append(frames, c.frame)
		}
	}
	envs := make([]wire.Envelope, 0, len(frames))
	for _, f := range frames {
		if e, err := wire.DecodeEnvelope(f); err == nil {
			envs = append(envs, e)
		}
	}
	var buf []byte
	out["wire.encode_ns"] = perItem(len(envs), func() {
		for i := range envs {
			buf = wire.AppendEnvelope(buf[:0], &envs[i])
			sink += len(buf)
		}
	})
	var dec wire.Decoder
	out["wire.decode_ns"] = perItem(len(frames), func() {
		dec.Reset()
		for _, f := range frames {
			e, _ := dec.Decode(f)
			sink += int(e.From)
		}
	})

	// Every delivery of the epoch packed into batch datagrams, as the UDP
	// parent packs them, then iterated as a shard does.
	var batches [][]byte
	pack := func() {
		batches = batches[:0]
		var cur []byte
		for seq, c := range captured {
			if cur == nil || len(cur)+wire.BatchFrameLen(c.to, len(c.frame)) > batchLimit {
				if cur != nil {
					batches = append(batches, cur)
				}
				cur = wire.AppendDatagramBatch(make([]byte, 0, batchLimit), 1, seq)
			}
			cur = wire.AppendBatchFrame(cur, c.to, c.frame)
		}
		if cur != nil {
			batches = append(batches, cur)
		}
	}
	out["wire.batch_pack_ns"] = perItem(len(captured), pack)
	out["wire.batch_unpack_ns"] = perItem(len(captured), func() {
		for _, b := range batches {
			it, err := wire.DecodeDatagramBatch(b)
			if err != nil {
				continue
			}
			for it.Next() {
				sink += it.To()
			}
		}
	})

	// The sketches and tree partials the frames carried.
	count := aggregate.NewCount(spec.Seed)
	var sketches []*sketch.Sketch
	var partials []int64
	var owners []int
	var baseParts []int64
	var baseSyns []*sketch.Sketch
	atBase := map[int]bool{}
	for _, c := range captured {
		if c.to == topo.Base {
			atBase[c.from] = true
		}
	}
	for _, e := range envs {
		switch e.Kind {
		case wire.KindSynopsis:
			if sk, err := sketch.DecodeWire(e.ContribSketch, contribK); err == nil {
				sketches = append(sketches, sk)
			}
			if syn, err := count.DecodeSynopsis(e.Payload); err == nil && atBase[int(e.From)] {
				baseSyns = append(baseSyns, syn)
			}
		case wire.KindTree:
			if p, err := count.DecodePartial(e.Payload); err == nil {
				partials = append(partials, p)
				owners = append(owners, int(e.From))
				if atBase[int(e.From)] {
					baseParts = append(baseParts, p)
				}
			}
		}
	}
	const fanIn = 8
	dst := sketch.New(contribK)
	groups := len(sketches) / fanIn
	out["sketch.union_ns"] = perItem(groups*fanIn, func() {
		for g := 0; g < groups; g++ {
			sketch.UnionAllInto(dst, sketches[g*fanIn:(g+1)*fanIn]...)
		}
	})
	ids := spec.Sensors
	out["sketch.insert_ns"] = perItem(ids, func() {
		dst.Reset()
		for id := 1; id <= ids; id++ {
			dst.Insert(spec.Seed, uint64(id))
		}
	})
	out["sketch.wire_ns"] = perItem(len(sketches), func() {
		for _, sk := range sketches {
			buf = sk.AppendWire(buf[:0])
			_ = dst.LoadWire(buf) // buf is AppendWire's own output
		}
	})
	syn := count.NewSynopsis()
	out["aggregate.count.convert_ns"] = perItem(len(partials), func() {
		for i, p := range partials {
			count.ConvertInto(0, owners[i], p, syn)
		}
	})
	out["aggregate.count.evalbase_ns"] = perItem(callsPerRound, func() {
		for i := 0; i < callsPerRound; i++ {
			sink += int(count.EvalBase(baseParts, baseSyns))
		}
	})

	// The field itself.
	const fields = 3
	var sc *synthetic.Scenario
	synth := make([]float64, fields)
	for i := range synth {
		start := time.Now()
		sc = synthetic.NewSynthetic(spec.Seed, spec.Sensors)
		synth[i] = msOf(time.Since(start))
	}
	out["workload.synthetic_ms"] = median(synth)

	view := network.New(sc.Graph, network.Global{P: spec.Loss}, spec.Seed).Epoch(warmupEpochs)
	out["network.delivered_ns"] = perItem(len(captured), func() {
		for _, c := range captured {
			if view.Delivered(0, c.from, c.to) {
				sink++
			}
		}
	})

	// The §4.2 switch operations: widen the delta level by level until it
	// covers the field, then shrink it back.
	calls := 0
	start := time.Now()
	for i := 0; i < microRounds; i++ {
		st := tdgraph.NewState(sc.Graph, sc.Rings, sc.Tree, 1)
		for st.ExpandCoarse() > 0 {
			calls++
		}
		for st.ShrinkCoarse() > 0 {
			calls++
		}
	}
	out["tdgraph.expand_shrink_us"] = usOf(time.Since(start)) / float64(max(calls, 1))

	// Quantile summaries of the base station's two largest subtrees under
	// tdserve's demo reading, merged and pruned as a tree node does.
	sizes := sc.Tree.SubtreeSizes()
	var a, b int
	for _, c := range sc.Tree.Children[topo.Base] {
		if a == 0 || sizes[c] > sizes[a] {
			a, b = c, a
		} else if b == 0 || sizes[c] > sizes[b] {
			b = c
		}
	}
	sumA, sumB := subtreeSummary(sc.Tree, a), subtreeSummary(sc.Tree, b)
	out["quantile.merge_prune_ns"] = perItem(callsPerRound, func() {
		for i := 0; i < callsPerRound; i++ {
			m := quantile.Merge(sumA, sumB)
			m.Prune(50)
			sink += m.Size()
		}
	})
	return out
}

// subtreeSummary is the exact rank summary of the demo readings of root's
// subtree (the whole field for a base station without children).
func subtreeSummary(tree *topo.Tree, root int) *quantile.Summary {
	var vals []float64
	var walk func(v int)
	walk = func(v int) {
		vals = append(vals, demoReading(0, v))
		for _, c := range tree.Children[v] {
			walk(c)
		}
	}
	walk(root)
	return quantile.FromUnsorted(vals)
}
