package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	td "tributarydelta"
	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/transport"
	"tributarydelta/internal/transport/batchio"
)

// The traced run: per-layer numbers taken from the benchmark's own files, by
// timing calls into each layer's public functions. It is in-process and
// separate from the timed run — end-to-end numbers always come from the
// untraced one.
//
// The same residents are built once per public boundary — Pool.RunRounds,
// QuerySet.RunEpoch, Session.RunEpoch and runner.New(…).RunEpoch — and each
// outer layer's self time is its median minus its child's. Only the bottom
// seam takes an injected child: the runner's Config.Transport is a timing
// wrapper, so transport spans are true children of the RunEpoch span.

const (
	traceEpochs = 1000 // epochs timed per stack, after the warm-up
	spanEpochs  = 200  // of which this many keep their full spans
	// deliverSampleEvery: a time.Now pair on every Deliver doubled SD's
	// epoch in sizing (0.5 → 1.08 ms for ≈4900 calls), so Deliver is timed
	// on one call in 16 by call counter and scaled.
	deliverSampleEvery = 16
)

// span is one timed call. Spans of one epoch of one stack share Epoch; Parent
// indexes the same stack's span list (−1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Epoch  int    `json:"epoch"`
}

// stackTrace is one stack's spans and counters in trace.json.
type stackTrace struct {
	Layer    string             `json:"layer"`
	Specs    []string           `json:"specs"`
	Spans    []span             `json:"spans"`
	Counters map[string]float64 `json:"counters"`
}

// tracer collects the stacks of one traced run. Runner traces are kept by
// spec, so a run over several workloads measures each standard configuration
// once.
type tracer struct {
	origin  time.Time
	stacks  []*stackTrace
	refs    references
	runners map[string]*runnerTrace
}

func newTracer(refs references) *tracer {
	return &tracer{origin: time.Now(), refs: refs, runners: map[string]*runnerTrace{}}
}

// runner returns the spec's runner trace, measuring it once.
func (t *tracer) runner(spec deploySpec) (*runnerTrace, error) {
	if rt, ok := t.runners[spec.String()]; ok {
		return rt, nil
	}
	ref, err := t.refs.warmup(spec)
	if err != nil {
		return nil, err
	}
	rt, err := t.traceRunner(spec, ref)
	if err == nil {
		t.runners[spec.String()] = rt
	}
	return rt, err
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) stack(layer string, specs []deploySpec) *stackTrace {
	st := &stackTrace{Layer: layer, Counters: map[string]float64{}}
	for _, s := range specs {
		st.Specs = append(st.Specs, s.String())
	}
	t.stacks = append(t.stacks, st)
	return st
}

// netTransport adapts network.Net to the runner's Transport seam the way the
// runner's own default does: delivery is a pure function of (seed, epoch,
// attempt, from, to) and the frame travels by staying in memory.
type netTransport struct {
	net   *network.Net
	view  network.EpochView
	epoch int
	set   bool
}

func (t *netTransport) Deliver(epoch, attempt, from, to int, _ []byte) bool {
	if !t.set || t.epoch != epoch {
		t.view, t.epoch, t.set = t.net.Epoch(epoch), epoch, true
	}
	return t.view.Delivered(attempt, from, to)
}

// capturedFrame is one Deliver call kept for the micro-metrics to replay.
type capturedFrame struct {
	from, to int
	frame    []byte
}

// timedTransport wraps the transport under a runner. While timing it counts
// every Deliver, times one in deliverSampleEvery, and times the epoch
// barrier; while capturing it copies the frames instead.
type timedTransport struct {
	inner  runner.Transport
	marker runner.EpochMarker // nil when inner keeps no barrier

	timing  bool
	capture bool
	seq     int // Deliver calls since construction; picks the sampled ones

	// Per-epoch accumulators, reset by beginEpochStats.
	calls, sampled  int
	frameBytes      int
	sampledNS       time.Duration
	beginNS, endNS  time.Duration
	captured        []capturedFrame
	tr              *tracer
	spans           *[]span // non-nil while the epoch keeps full spans
	parent, epochNo int
}

func newTimedTransport(inner runner.Transport) *timedTransport {
	t := &timedTransport{inner: inner}
	t.marker, _ = inner.(runner.EpochMarker)
	return t
}

func (t *timedTransport) beginEpochStats() {
	t.calls, t.sampled, t.frameBytes = 0, 0, 0
	t.sampledNS, t.beginNS, t.endNS = 0, 0, 0
}

// transportTime is the epoch's time inside the transport, the sampled
// Deliver calls scaled to all of them.
func (t *timedTransport) transportTime() time.Duration {
	return t.beginNS + scaleSampled(t.sampledNS, t.sampled, t.calls) + t.endNS
}

func (t *timedTransport) addSpan(name string, start, end time.Time) {
	if t.spans != nil {
		*t.spans = append(*t.spans, span{Name: name, Start: t.tr.since(start), End: t.tr.since(end), Parent: t.parent, Epoch: t.epochNo})
	}
}

// Deliver implements runner.Transport.
func (t *timedTransport) Deliver(epoch, attempt, from, to int, frame []byte) bool {
	if t.capture {
		t.captured = append(t.captured, capturedFrame{from: from, to: to, frame: append([]byte(nil), frame...)})
	}
	if !t.timing {
		return t.inner.Deliver(epoch, attempt, from, to, frame)
	}
	t.calls++
	t.frameBytes += len(frame)
	t.seq++
	if t.seq%deliverSampleEvery != 0 {
		return t.inner.Deliver(epoch, attempt, from, to, frame)
	}
	start := time.Now()
	ok := t.inner.Deliver(epoch, attempt, from, to, frame)
	end := time.Now()
	t.sampled++
	t.sampledNS += end.Sub(start)
	t.addSpan("transport.Deliver", start, end)
	return ok
}

// BeginEpoch implements runner.EpochMarker.
func (t *timedTransport) BeginEpoch(epoch int) {
	if t.marker == nil {
		return
	}
	if !t.timing {
		t.marker.BeginEpoch(epoch)
		return
	}
	start := time.Now()
	t.marker.BeginEpoch(epoch)
	end := time.Now()
	t.beginNS += end.Sub(start)
	t.addSpan("transport.BeginEpoch", start, end)
}

// EndEpoch implements runner.EpochMarker.
func (t *timedTransport) EndEpoch(epoch int) {
	if t.marker == nil {
		return
	}
	if !t.timing {
		t.marker.EndEpoch(epoch)
		return
	}
	start := time.Now()
	t.marker.EndEpoch(epoch)
	end := time.Now()
	t.endNS += end.Sub(start)
	t.addSpan("transport.EndEpoch", start, end)
}

// runnerStack is the Count runner of one spec, built the way the facade
// builds it (runner.New over the deployment's field), over a transport the
// benchmark chose.
type runnerStack struct {
	spec deploySpec
	r    *runner.Runner[struct{}, int64, *sketch.Sketch, float64]
	udp  *transport.UDP  // nil on the simulator
	tt   *timedTransport // nil when the stack is not wrapped
	// openMS is how long transport.NewUDP took.
	openMS float64
}

// newRunnerStack assembles the stack. wrap puts the timing wrapper between
// the runner and its transport; without it the runner drives the transport
// directly, exactly as a facade session does.
func newRunnerStack(spec deploySpec, wrap bool) (*runnerStack, error) {
	scheme, err := parseScheme(spec.Scheme)
	if err != nil {
		return nil, err
	}
	dep := newDeployment(spec, false)
	sc := dep.Scenario()
	tree := sc.Tree
	if scheme == td.SchemeTAG {
		tree = sc.TAGTree
	}
	nw := network.New(sc.Graph, dep.Model(), spec.Seed)
	stats := network.NewStats(sc.Graph.N())
	s := &runnerStack{spec: spec}
	var tr runner.Transport = &netTransport{net: nw}
	if spec.UDP {
		start := time.Now()
		s.udp, err = transport.NewUDP(nw, transport.UDPOptions{Shards: udpShards, Deterministic: true, Stats: stats})
		if err != nil {
			return nil, fmt.Errorf("udp transport: %w", err)
		}
		s.openMS = msOf(time.Since(start))
		tr = s.udp
	}
	if wrap {
		s.tt = newTimedTransport(tr)
		tr = s.tt
	}
	s.r, err = runner.New(runner.Config[struct{}, int64, *sketch.Sketch, float64]{
		Graph: sc.Graph, Rings: sc.Rings, Tree: tree,
		Net:       nw,
		Agg:       aggregate.NewCount(spec.Seed),
		Value:     func(int, int) struct{} { return struct{}{} },
		Mode:      scheme,
		Seed:      spec.Seed,
		Transport: tr,
		Stats:     stats,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmUp runs epochs [0, warmupEpochs) and checks the Count answers against
// the facade reference: the stack below the facade is the same stack.
func (s *runnerStack) warmUp(ref reference) error {
	for epoch := 0; epoch < warmupEpochs; epoch++ {
		res := s.r.RunEpoch(epoch)
		want := ref.Rounds[epoch].Results[0]
		if !sameBits(res.Answer, want.Answer.Scalar) || res.TrueContrib != want.TrueContrib {
			return fmt.Errorf("%s: runner epoch %d differs from the facade reference", s.spec, epoch)
		}
	}
	return nil
}

// close releases the runner and its UDP fleet and returns how long closing
// the fleet took.
func (s *runnerStack) close() (closeMS float64) {
	if s.r != nil {
		s.r.Close()
	}
	if s.udp != nil {
		start := time.Now()
		s.udp.Close()
		closeMS = msOf(time.Since(start))
	}
	return closeMS
}

// runnerTrace is what tracing one spec's Count runner on its own measured.
type runnerTrace struct {
	epochUS    []float64 // traced epochs
	selfUS     []float64 // epoch minus transport spans
	barrierUS  []float64 // EndEpoch per epoch
	untraced   []float64 // the same runner, wrapper passing through
	deliverNS  float64   // mean sampled Deliver
	frames     float64   // Deliver calls per epoch
	frameSize  float64   // mean frame bytes
	deltaSize  int
	allocs     float64 // heap allocations per untraced epoch
	allocB     float64
	firstEpoch int // first traced epoch number
	captured   []capturedFrame
	// UDP only.
	openMS, closeMS float64
	datagrams       float64
	syscalls        float64
	dgramBytes      float64
	lost, dupes     int64
	degraded        int
}

// traceRunner measures spec's Count runner over the timing wrapper: traced
// epochs with their transport spans, the same epochs' worth untraced, and one
// captured epoch for the micro-metrics.
func (t *tracer) traceRunner(spec deploySpec, ref reference) (out *runnerTrace, err error) {
	s, err := newRunnerStack(spec, true)
	if err != nil {
		return nil, err
	}
	out = &runnerTrace{openMS: s.openMS}
	defer func() { out.closeMS = s.close() }()
	if err := s.warmUp(ref); err != nil {
		return out, err
	}
	r, tt, udp := s.r, s.tt, s.udp
	tt.tr = t
	epoch := warmupEpochs
	out.deltaSize = r.State().DeltaSize()
	out.firstEpoch = epoch

	st := t.stack("runner", []deploySpec{spec})
	var io0 batchio.Snapshot
	if udp != nil {
		io0 = udp.IOStats()
	}
	var sampledNS time.Duration
	var sampled, calls, frameBytes int
	tt.timing = true
	for i := 0; i < traceEpochs; i, epoch = i+1, epoch+1 {
		tt.beginEpochStats()
		tt.spans = nil
		if i < spanEpochs {
			tt.spans, tt.parent, tt.epochNo = &st.Spans, len(st.Spans), epoch
			st.Spans = append(st.Spans, span{Name: "runner.RunEpoch", Parent: -1, Epoch: epoch})
		}
		start := time.Now()
		r.RunEpoch(epoch)
		end := time.Now()
		if tt.spans != nil {
			st.Spans[tt.parent].Start, st.Spans[tt.parent].End = t.since(start), t.since(end)
		}
		d := end.Sub(start)
		out.epochUS = append(out.epochUS, usOf(d))
		out.selfUS = append(out.selfUS, selfTime(usOf(d), usOf(tt.transportTime())))
		out.barrierUS = append(out.barrierUS, usOf(tt.endNS))
		sampledNS += tt.sampledNS
		sampled += tt.sampled
		calls += tt.calls
		frameBytes += tt.frameBytes
	}
	tt.timing, tt.spans = false, nil
	if udp != nil {
		io := udp.IOStats().Sub(io0)
		out.datagrams = float64(io.SentDatagrams) / traceEpochs
		out.syscalls = float64(io.SendCalls+io.RecvCalls) / traceEpochs
		if io.SentDatagrams > 0 {
			out.dgramBytes = float64(io.SentBytes) / float64(io.SentDatagrams)
		}
	}
	if sampled > 0 {
		out.deliverNS = float64(sampledNS.Nanoseconds()) / float64(sampled)
	}
	out.frames = float64(calls) / traceEpochs
	if calls > 0 {
		out.frameSize = float64(frameBytes) / float64(calls)
	}

	// The same runner with the wrapper passing through: the difference is
	// the tracing overhead, and the allocation counts are the engine's own.
	out.untraced = make([]float64, 0, traceEpochs)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < traceEpochs; i, epoch = i+1, epoch+1 {
		start := time.Now()
		r.RunEpoch(epoch)
		out.untraced = append(out.untraced, usOf(time.Since(start)))
	}
	runtime.ReadMemStats(&m1)
	out.allocs = float64(m1.Mallocs-m0.Mallocs) / traceEpochs
	out.allocB = float64(m1.TotalAlloc-m0.TotalAlloc) / traceEpochs

	tt.capture = true
	r.RunEpoch(epoch)
	tt.capture = false
	out.captured = tt.captured

	if udp != nil {
		if err := udp.Err(); err != nil {
			return out, fmt.Errorf("%s: transport error: %w", spec, err)
		}
		out.lost, out.dupes = udp.Lost(), udp.Duplicates()
		out.degraded = udp.Health().DegradedEpochs
	}
	st.Counters["epochs"] = traceEpochs
	st.Counters["span_epochs"] = spanEpochs
	st.Counters["deliver_calls"] = float64(calls)
	st.Counters["deliver_sampled"] = float64(sampled)
	st.Counters["frame_bytes"] = float64(frameBytes)
	st.Counters["delta_size"] = float64(out.deltaSize)
	return out, nil
}

// layerTimes are the per-pass samples (µs) of the four public boundaries,
// index-aligned: sample i of every layer is the same epoch of the same
// residents. sessionCount is the Count member's share of session.
type layerTimes struct {
	pool, queryset, session, sessionCount, runner []float64
}

// pairedSelf is a layer's self time: the median over epochs of its sample
// minus its child's sample of the same epoch. The stacks are replicas in the
// same state and are measured in turn within each epoch, so the pairing
// cancels both the epoch's own work and the host's drift.
func pairedSelf(layer, child []float64) float64 {
	diff := make([]float64, len(layer))
	for i := range layer {
		diff[i] = selfTime(layer[i], child[i])
	}
	return median(diff)
}

// traceLayers builds the residents once per public boundary — Pool.RunRounds
// hosted as tdserve hosts them, QuerySet.RunEpoch, the member sessions'
// RunEpoch, and runner.New(…).RunEpoch over the same transport a session gets
// — warms every stack up against the reference, then times them in turn,
// epoch by epoch.
func (t *tracer) traceLayers(specs []deploySpec) (lt layerTimes, err error) {
	n := len(specs)
	refs := make([]reference, n)
	for i, spec := range specs {
		if refs[i], err = t.refs.warmup(spec); err != nil {
			return lt, err
		}
	}
	verify := func(i int, names []string, rounds []td.SetRound) error {
		for _, round := range rounds {
			if !equalRound(wireRound(names, round), refs[i].Rounds[round.Epoch]) {
				return fmt.Errorf("%s: epoch %d differs from the reference", specs[i], round.Epoch)
			}
		}
		return nil
	}

	pool := td.NewPool(0)
	defer pool.Close()
	ids := make([]string, n)
	sets := make([]*td.QuerySet, n)       // the QuerySet stack
	memberSets := make([]*td.QuerySet, n) // the Session stack's owners
	members := make([][]memberSession, n)
	runners := make([]*runnerStack, n)
	defer func() {
		for i := range specs {
			for _, s := range []*td.QuerySet{sets[i], memberSets[i]} {
				if s != nil {
					s.Close()
				}
			}
			if runners[i] != nil {
				runners[i].close()
			}
		}
	}()
	for i, spec := range specs {
		ids[i] = fmt.Sprintf("r%d", i)
		hosted, _, err := openSet(spec, true)
		if err != nil {
			return lt, err
		}
		if err := pool.AddSet(ids[i], hosted); err != nil {
			hosted.Close()
			return lt, err
		}
		if sets[i], _, err = openSet(spec, true); err != nil {
			return lt, err
		}
		if memberSets[i], members[i], err = openSet(spec, true); err != nil {
			return lt, err
		}
		if runners[i], err = newRunnerStack(spec, false); err != nil {
			return lt, err
		}
	}
	for i := range specs {
		rounds, names, err := pool.RunRounds(ids[i], warmupEpochs)
		if err == nil {
			err = verify(i, names, rounds)
		}
		if err == nil {
			err = verify(i, sets[i].Names(), sets[i].Run(0, warmupEpochs))
		}
		if err == nil {
			err = verify(i, memberSets[i].Names(), memberSets[i].Run(0, warmupEpochs))
		}
		if err == nil {
			err = runners[i].warmUp(refs[i])
		}
		if err != nil {
			return lt, err
		}
	}

	layers := []struct {
		name, span string
		samples    *[]float64
		step       func(i, epoch int) (total, head time.Duration)
	}{
		{"pool", "Pool.RunRounds", &lt.pool, func(i, _ int) (time.Duration, time.Duration) {
			start := time.Now()
			_, _, rerr := pool.RunRounds(ids[i], 1)
			d := time.Since(start)
			if rerr != nil {
				err = rerr
			}
			return d, 0
		}},
		{"queryset", "QuerySet.RunEpoch", &lt.queryset, func(i, epoch int) (time.Duration, time.Duration) {
			start := time.Now()
			sets[i].RunEpoch(epoch)
			return time.Since(start), 0
		}},
		{"session", "Session.RunEpoch", &lt.session, func(i, epoch int) (total, head time.Duration) {
			for j, m := range members[i] {
				start := time.Now()
				m.runMember(epoch)
				d := time.Since(start)
				total += d
				if j == 0 {
					head = d
				}
			}
			return total, head
		}},
		{"runner", "runner.RunEpoch", &lt.runner, func(i, epoch int) (time.Duration, time.Duration) {
			start := time.Now()
			runners[i].r.RunEpoch(epoch)
			return time.Since(start), 0
		}},
	}
	stacks := make([]*stackTrace, len(layers))
	for l, layer := range layers {
		stacks[l] = t.stack(layer.name, specs)
		stacks[l].Counters["epochs"] = traceEpochs
		stacks[l].Counters["span_epochs"] = spanEpochs
	}
	// A sample is one pass over the residents divided by their number — the
	// sample the end-to-end run takes.
	for i := 0; i < traceEpochs; i++ {
		epoch := warmupEpochs + i
		for l, layer := range layers {
			var pass, passHead time.Duration
			for r := range specs {
				start := time.Now()
				d, head := layer.step(r, epoch)
				if i < spanEpochs {
					at := t.since(start)
					stacks[l].Spans = append(stacks[l].Spans, span{Name: layer.span, Start: at, End: at + d.Nanoseconds(), Parent: -1, Epoch: epoch})
				}
				pass += d
				passHead += head
			}
			*layer.samples = append(*layer.samples, usOf(pass)/float64(n))
			if layer.name == "session" {
				lt.sessionCount = append(lt.sessionCount, usOf(passHead)/float64(n))
			}
		}
	}
	return lt, err
}

// standardSpecs are the 600-sensor Count configurations the runner.* metrics
// are always measured on, whatever the workload; transport.udp.* comes from
// udpSpec and the micro-metrics replay tdSpec's frames.
var standardSpecs = map[string]deploySpec{"tag": tagSpec, "sd": sdSpec, "td": tdSpec}

// traceWorkload is the traced run of one workload: a short end-to-end run for
// the tdserve.* metrics, the facade stacks on the workload's residents, the
// runner and transport on the standard configurations, and the micro-metrics
// replaying what the TD runner captured.
func (t *tracer) traceWorkload(ctx context.Context, cfg runConfig, w workload) (workloadResult, error) {
	specs := w.Residents(cfg.NProc)

	e2e, err := runWorkloads(ctx, cfg, []workload{w})
	if err != nil {
		return workloadResult{}, err
	}
	res := e2e[0]
	served := res.Metrics
	res.Metrics = map[string]metricValue{}
	put := func(name string, v float64) {
		for _, d := range perLayerDefs {
			if d.Name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("bench: unknown per-layer metric " + name)
	}
	for _, name := range []string{"tdserve.resp_bytes", "tdserve.create_ms", "tdserve.stats_us"} {
		put(name, served[name].Value)
	}

	lt, err := t.traceLayers(specs)
	if err != nil {
		return res, err
	}
	poolUS, setUS, sessUS := median(lt.pool), median(lt.queryset), median(lt.session)
	put("tdserve.overhead_us", selfTime(served["run_p50_ms"].Median*1e3, poolUS))
	put("pool.run_rounds_us", poolUS)
	put("pool.self_us", pairedSelf(lt.pool, lt.queryset))
	put("queryset.run_epoch_us", setUS)
	put("queryset.self_us", pairedSelf(lt.queryset, lt.session))
	put("session.run_epoch_us", sessUS)
	put("session.self_us", pairedSelf(lt.sessionCount, lt.runner))

	openMS, addRemoveUS, err := traceOpen(w.Ephemeral, cfg.Seed)
	if err != nil {
		return res, err
	}
	put("facade.open_ms", openMS)
	put("pool.add_remove_us", addRemoveUS)

	for _, name := range []string{"tag", "sd", "td"} {
		rt, err := t.runner(standardSpecs[name])
		if err != nil {
			return res, err
		}
		put("runner.epoch_us."+name, median(rt.epochUS))
		put("runner.self_us."+name, median(rt.selfUS))
	}
	tdRun := t.runners[tdSpec.String()]
	put("runner.allocs_per_epoch", tdRun.allocs)
	put("runner.alloc_bytes_per_epoch", tdRun.allocB)
	put("runner.frames_per_epoch", tdRun.frames)
	put("runner.frame_bytes", tdRun.frameSize)
	put("runner.delta_size", float64(tdRun.deltaSize))
	var boundary, rest []float64
	for i, us := range tdRun.epochUS {
		// The runner adapts after epochs with (epoch+1) % AdaptEvery == 0,
		// AdaptEvery defaulting to 10.
		if (tdRun.firstEpoch+i+1)%10 == 0 {
			boundary = append(boundary, us)
		} else {
			rest = append(rest, us)
		}
	}
	put("runner.adapt_extra_us", median(boundary)-median(rest))
	put("transport.sim.deliver_ns", tdRun.deliverNS)
	put("trace.overhead_pct", 100*(median(tdRun.epochUS)-median(tdRun.untraced))/median(tdRun.untraced))

	udpRun, err := t.runner(udpSpec)
	if err != nil {
		return res, err
	}
	put("transport.udp.deliver_ns", udpRun.deliverNS)
	put("transport.udp.barrier_us", median(udpRun.barrierUS))
	put("transport.udp.datagrams_per_epoch", udpRun.datagrams)
	put("transport.udp.syscalls_per_epoch", udpRun.syscalls)
	put("transport.udp.bytes_per_datagram", udpRun.dgramBytes)
	put("transport.udp.lost", float64(udpRun.lost))
	put("transport.udp.duplicates", float64(udpRun.dupes))
	put("transport.udp.degraded_epochs", float64(udpRun.degraded))
	put("transport.udp.open_ms", udpRun.openMS)
	put("transport.udp.close_ms", udpRun.closeMS)

	for name, v := range microMetrics(tdSpec, tdRun.captured) {
		put(name, v)
	}

	res.dropUnmeasured()
	return res, nil
}

// traceOpen times opening the ephemeral deployment through the facade and
// hosting it in a pool, on fields drawn from seed.
func traceOpen(spec deploySpec, seed uint64) (openMS, addRemoveUS float64, err error) {
	const rounds = 5
	pool := td.NewPool(0)
	defer pool.Close()
	var opens, hosts []float64
	for i := 0; i < rounds; i++ {
		spec.Seed = seed*rounds + uint64(i) + 1
		start := time.Now()
		set, _, err := openSet(spec, true)
		if err != nil {
			return 0, 0, err
		}
		opens = append(opens, msOf(time.Since(start)))
		start = time.Now()
		if err := pool.AddSet("e", set); err != nil {
			set.Close()
			return 0, 0, err
		}
		pool.Remove("e")
		hosts = append(hosts, usOf(time.Since(start)))
	}
	return median(opens), median(hosts), nil
}

// traceFile is bench/out/trace.json.
type traceFile struct {
	Note   string        `json:"note"`
	Stacks []*stackTrace `json:"stacks"`
}

// writeTrace writes the spans collected in memory out at the end of the run.
func writeTrace(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(traceFile{
		Note:   "times are ns since the traced run began; a span's parent indexes its own stack's span list (-1: root); see bench/README.md",
		Stacks: t.stacks,
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
