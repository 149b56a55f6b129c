package runner

import (
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/sketch"
)

// TestEpochZeroAllocCount pins the zero-allocation receive path: after the
// first epochs grow every pool and buffer to steady state, a Count
// collection round allocates nothing — across the tree scheme, full
// synopsis diffusion, and TD. (Adaptation periods
// are excluded: a TD switch legitimately relabels state; the claim is about
// the per-epoch collection loop.)
func TestEpochZeroAllocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race job")
	}
	for _, mode := range []Mode{ModeTree, ModeMultipath} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newFixture(20, 300)
			r := countRunner(t, f, mode, network.Global{P: 0.2}, 20,
				func(c *Config[struct{}, int64, *sketch.Sketch, float64]) {
					c.AdaptEvery = 1 << 30
				})
			// Warm up loss-free: with every frame delivered, every pool and
			// buffer reaches its maximum size, so the lossy epochs measured
			// below can never need growth.
			r.cfg.Net.Model = network.Global{P: 0}
			epoch := 0
			for ; epoch < 5; epoch++ {
				r.RunEpoch(epoch)
			}
			r.cfg.Net.Model = network.Global{P: 0.2}
			n := testing.AllocsPerRun(20, func() {
				r.RunEpoch(epoch)
				epoch++
			})
			if n != 0 {
				t.Fatalf("steady-state Count epoch allocates %v per op, want 0", n)
			}
		})
	}
}

// TestEpochZeroAllocSum is TestEpochZeroAllocCount for Sum — the other
// aggregate the acceptance bar names.
func TestEpochZeroAllocSum(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race job")
	}
	for _, mode := range []Mode{ModeTree, ModeMultipath} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newFixture(21, 300)
			r := sumRunner(t, f, mode, network.Global{P: 0.2}, 21,
				func(c *Config[float64, float64, *sketch.Sketch, float64]) {
					c.AdaptEvery = 1 << 30
				})
			// Loss-free warm-up maximizes every pool; see TestEpochZeroAllocCount.
			r.cfg.Net.Model = network.Global{P: 0}
			epoch := 0
			for ; epoch < 5; epoch++ {
				r.RunEpoch(epoch)
			}
			r.cfg.Net.Model = network.Global{P: 0.2}
			n := testing.AllocsPerRun(20, func() {
				r.RunEpoch(epoch)
				epoch++
			})
			if n != 0 {
				t.Fatalf("steady-state Sum epoch allocates %v per op, want 0", n)
			}
		})
	}
}

// TestRecyclerEngagedForSimpleAggregates pins that the runner actually
// resolves the synopsis-recycling fast path for the sketch-backed
// aggregates — if the interface assertion silently broke, the zero-alloc
// tests above would be the only symptom, and only for Count/Sum.
func TestRecyclerEngagedForSimpleAggregates(t *testing.T) {
	f := newFixture(22, 100)
	cr := countRunner(t, f, ModeMultipath, network.Global{P: 0}, 22)
	if cr.rec == nil {
		t.Fatal("Count runner did not resolve the SynopsisRecycler fast path")
	}
	r, err := New(Config[float64, aggregate.AvgPartial, aggregate.AvgSynopsis, float64]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, network.Global{P: 0}, 22),
		Agg:   aggregate.NewAverage(22),
		Value: func(_, node int) float64 { return float64(node) },
		Mode:  ModeMultipath, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.rec == nil {
		t.Fatal("Average runner did not resolve the SynopsisRecycler fast path")
	}
}
