package runner

import (
	"math"
	"slices"
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/wire"
)

// ncTap is a decoding Transport: it decodes every frame on the seam, flags
// an NC-bearing frame on an epoch where wantNC says none may travel, and
// keeps the senders of NC-bearing frames and the envelopes the base station
// received. The envelopes' byte fields alias the runner's reused frame
// buffers and are not read; their NC and Contrib fields are copies.
type ncTap struct {
	t      *testing.T
	net    *network.Net
	wantNC func(epoch int) bool
	ncFrom map[int]bool
	base   []wire.Envelope
}

func (c *ncTap) Deliver(epoch, attempt, from, to int, frame []byte) bool {
	e, err := wire.DecodeEnvelope(frame)
	if err != nil {
		c.t.Fatalf("epoch %d: frame from %d does not decode: %v", epoch, from, err)
	}
	if e.NCValid {
		if !c.wantNC(epoch) {
			c.t.Fatalf("epoch %d: node %d ships §4.2 statistics off a decision epoch", epoch, from)
		}
		c.ncFrom[from] = true
	}
	ok := c.net.Delivered(epoch, attempt, from, to)
	if ok && to == topo.Base {
		c.base = append(c.base, e)
	}
	return ok
}

// TestNCStatsTravelOnlyOnDecisionEpochs pins that the §4.2 statistics are on
// the radio exactly when Decide reads them: never off a decision epoch (and
// never outside TD), and on a decision epoch from every frontier M vertex,
// with the base station's merged top-k and minimum equal to those recomputed
// from the frames it received and its tree children's reports. The
// zero-loss run enters its decision epochs with clean M vertices, so a
// memoized frame built without the statistics must not be re-broadcast.
func TestNCStatsTravelOnlyOnDecisionEpochs(t *testing.T) {
	cases := []struct {
		name       string
		mode       Mode
		loss       float64
		topK       int
		adaptEvery int
	}{
		{"TD/loss=0", ModeTD, 0, 0, 10},
		{"TD/loss=0.25/top3/every7", ModeTD, 0.25, 3, 7},
		{"TD-Coarse/loss=0.25", ModeTDCoarse, 0.25, 0, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(38, 250)
			tap := &ncTap{t: t, net: network.New(f.g, network.Global{P: tc.loss}, 38)}
			r := countRunner(t, f, tc.mode, network.Global{P: tc.loss}, 38,
				func(c *Config[struct{}, int64, *sketch.Sketch, float64]) {
					c.Transport = tap
					c.TopK = tc.topK
					c.AdaptEvery = tc.adaptEvery
				})
			tap.wantNC = func(epoch int) bool { return tc.mode == ModeTD && (epoch+1)%tc.adaptEvery == 0 }
			decisions, cleanEntries := 0, 0
			for e := 0; e < 40; e++ {
				tap.ncFrom, tap.base = map[int]bool{}, tap.base[:0]
				// Decide may relabel after the merge, so the base's tree
				// children, their subtree sizes and the frontier are read
				// before the epoch runs.
				type child struct{ v, size int }
				var kids []child
				for _, c := range f.tr.Children[topo.Base] {
					if !r.state.IsM(c) && r.participates(c) {
						kids = append(kids, child{c, r.state.SubtreeSize(c)})
					}
				}
				var frontier []int
				clean := 0
				for v := 1; v < f.g.N(); v++ {
					if r.participates(v) && r.state.IsFrontierM(v) {
						frontier = append(frontier, v)
					}
					if r.memo != nil && r.memoState[v].clean {
						clean++
					}
				}
				r.RunEpoch(e)
				if !tap.wantNC(e) {
					if len(r.baseTopNC) != 0 {
						t.Fatalf("epoch %d: base merged %v off a decision epoch", e, r.baseTopNC)
					}
					continue
				}
				decisions++
				if clean > 0 {
					cleanEntries++
				}
				for _, v := range frontier {
					if !tap.ncFrom[v] {
						t.Fatalf("epoch %d: frontier M vertex %d shipped no §4.2 statistics", e, v)
					}
				}
				var vals []int
				minNC, valid := 0, false
				lowest := func(nc int) {
					if !valid || nc < minNC {
						minNC = nc
					}
					valid = true
				}
				contrib := map[int]int64{}
				for _, be := range tap.base {
					if be.Kind == wire.KindTree {
						contrib[int(be.From)] = be.Contrib
					} else if be.NCValid {
						vals = append(vals, be.TopNC...)
						lowest(be.MinNC)
					}
				}
				for _, k := range kids {
					nc := max(k.size-int(contrib[k.v]), 0)
					vals = append(vals, nc)
					lowest(nc)
				}
				slices.Sort(vals)
				slices.Reverse(vals)
				vals = vals[:min(len(vals), r.topKCap())]
				if !slices.Equal(r.baseTopNC, vals) || (valid && r.baseMinNC != minNC) {
					t.Fatalf("epoch %d: base merged top %v min %d, frames give top %v min %d",
						e, r.baseTopNC, r.baseMinNC, vals, minNC)
				}
			}
			switch {
			case tc.mode == ModeTD && decisions == 0:
				t.Fatal("no decision epoch shipped statistics")
			case tc.mode == ModeTD && tc.loss == 0 && cleanEntries == 0:
				t.Fatal("no decision epoch was entered with clean M vertices")
			case tc.mode != ModeTD && decisions != 0:
				t.Fatalf("%v shipped statistics on %d epochs", tc.mode, decisions)
			}
		})
	}
}

// TestSynopsisFrameBound encodes the largest synopsis frame a Count runner
// can build — the widest sender id, full-width synopsis and contributing
// sketches, topKCap()+1 NC values at ±MaxInt — and checks that it fits
// maxSynFrame, the size every synopsis frame slot is allocated at. A frame
// past the bound would regrow its slot and cost the epoch an allocation.
func TestSynopsisFrameBound(t *testing.T) {
	f := newFixture(39, 60)
	full := func(k int) *sketch.Sketch {
		enc := make([]byte, sketch.WireBytes(k))
		enc[0] = byte(sketch.BitmapBits)
		for i := 1; i < len(enc); i++ {
			enc[i] = 0xFF
		}
		s := sketch.New(k)
		if err := s.LoadWire(enc); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, topK := range []int{0, 9} {
		r := countRunner(t, f, ModeTD, network.Global{P: 0}, 39,
			func(c *Config[struct{}, int64, *sketch.Sketch, float64]) { c.TopK = topK })
		topNC := make([]int, r.topKCap()+1)
		for i := range topNC {
			topNC[i] = math.MaxInt
			if i%2 == 1 {
				topNC[i] = math.MinInt
			}
		}
		env := envelope[int64, *sketch.Sketch]{
			from: math.MaxUint32, s: full(r.cfg.Agg.(*aggregate.Count).K), contribSk: full(r.cfg.ContribK),
			topNC: topNC, minNC: math.MinInt, ncValid: true,
		}
		var slot frameSlot[int64, *sketch.Sketch]
		r.encodeFrame(r.cfg.AdaptEvery-1, &env, &slot)
		if len(slot.buf) > r.maxSynFrame || cap(slot.buf) != r.maxSynFrame {
			t.Fatalf("TopK %d: worst-case frame is %d bytes in a %d-byte slot, bound %d",
				topK, len(slot.buf), cap(slot.buf), r.maxSynFrame)
		}
		var got envelope[int64, *sketch.Sketch]
		r.decodeFrame(slot.buf, &got)
		if got.from != env.from || !slices.Equal(got.topNC, topNC) || got.minNC != env.minNC {
			t.Fatalf("TopK %d: worst-case frame decodes to from %d top %v min %d", topK, got.from, got.topNC, got.minNC)
		}
	}
}

// payloadDamage returns frame cut at every length inside its n-byte payload
// tail, and frame with one trailing byte.
func payloadDamage(frame []byte, n int) [][]byte {
	var out [][]byte
	for cut := len(frame) - n; cut < len(frame); cut++ {
		out = append(out, frame[:cut])
	}
	return append(out, append(slices.Clip(frame), 0))
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestPayloadCodecsRejectDamagedFrames: the envelope's payload runs to the
// end of the frame, so a frame cut inside its payload, or grown by a byte,
// still decodes as an envelope — every aggregate's payload codec must
// reject what it is then handed, and decodeFrame, which chains the two,
// must refuse the frame.
func TestPayloadCodecsRejectDamagedFrames(t *testing.T) {
	f := newFixture(11, 60)
	for _, k := range []struct {
		kind     wire.Kind
		decoders []fuzzDecoder
	}{{wire.KindTree, partialDecoders(f)}, {wire.KindSynopsis, synopsisDecoders(f)}} {
		for _, d := range k.decoders {
			frame := wire.AppendEnvelope(nil, &wire.Envelope{
				Kind: k.kind, From: 2, Contrib: 1, ContribSketch: []byte{0}, Payload: d.good,
			})
			for _, bad := range payloadDamage(frame, len(d.good)) {
				e, err := wire.DecodeEnvelope(bad)
				if err != nil {
					t.Fatalf("%s: envelope of % x: %v", d.name, bad, err)
				}
				if d.decode(e.Payload) == nil {
					t.Errorf("kind %d %s: damaged payload % x accepted", k.kind, d.name, e.Payload)
				}
			}
		}
	}

	r := countRunner(t, f, ModeTD, network.Global{P: 0}, 11)
	r.RunEpoch(0)
	var dst envelope[int64, *sketch.Sketch]
	for _, slot := range r.frames {
		e, err := wire.DecodeEnvelope(slot.buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range payloadDamage(slot.buf, len(e.Payload)) {
			if !panics(func() { r.decodeFrame(bad, &dst) }) {
				t.Fatalf("decodeFrame accepted % x, a damaged copy of % x", bad, slot.buf)
			}
		}
	}
}
