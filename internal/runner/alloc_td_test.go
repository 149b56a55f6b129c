package runner

import (
	"runtime"
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/freq"
	"tributarydelta/internal/network"
	"tributarydelta/internal/quantile"
	"tributarydelta/internal/sample"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/xrand"
)

// TestEpochLowAllocTD pins the TD scheme's steady-state allocation budget —
// the mixed tributary/delta topology exercises the boundary conversion
// caches and the per-child contributing insertions on top of the Count/Sum
// receive path. Collection epochs must allocate nothing once warmed; with
// the default adaptation cadence the whole loop (decisions included) must
// stay within a small amortized budget.
func TestEpochLowAllocTD(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race job")
	}
	t.Run("collection-only", func(t *testing.T) {
		f := newFixture(23, 300)
		r := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 23,
			func(c *Config[struct{}, int64, *sketch.Sketch, float64]) {
				c.AdaptEvery = 1 << 30
			})
		// Loss-free warm-up maximizes every pool, buffer, boundary cache and
		// sender list; see TestEpochZeroAllocCount.
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
			t.Fatalf("steady-state TD collection epoch allocates %v per op, want 0", n)
		}
	})
	t.Run("with-adaptation", func(t *testing.T) {
		f := newFixture(24, 300)
		r := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 24)
		epoch := 0
		// The delta takes a while to reach its oscillating equilibrium, and
		// every pool, cache and frame buffer must see its worst-case shape
		// (one growth per switched node, per loss pattern) before the loop
		// goes quiet — hence the long warm-up.
		for ; epoch < 1000; epoch++ {
			r.RunEpoch(epoch)
		}
		n := testing.AllocsPerRun(40, func() {
			r.RunEpoch(epoch)
			epoch++
		})
		// With the §4.2 decision path incrementalized (O(1) DeltaSize,
		// scratch-backed candidate scans) the whole loop — adaptation
		// decisions and reseed-period rebuilds included — allocates nothing
		// at equilibrium.
		if n != 0 {
			t.Fatalf("TD epoch with adaptation allocates %v per op, want 0", n)
		}
	})
	t.Run("quantiles", func(t *testing.T) {
		f := newFixture(26, 300)
		agg := goldenQuantiles(f, 26)
		r, err := New(Config[float64, *quantile.Partial, *quantile.Synopsis, *quantile.Summary]{
			Graph: f.g, Rings: f.r, Tree: f.tr,
			Net:   network.New(f.g, network.Global{P: 0}, 26),
			Agg:   agg,
			Value: func(_, node int) float64 { return float64(node % 50) },
			Mode:  ModeTD, Seed: 26, AdaptEvery: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Loss-free epochs grow every slot's partials to their senders' full
		// subtrees (pooled synopses are reserved at capacity from the start,
		// and the summary merges' ping-pong pairs grow in step); a lossy
		// stretch follows so the measured epochs are not the first of it.
		epoch := 0
		for ; epoch < 5; epoch++ {
			r.RunEpoch(epoch)
		}
		r.cfg.Net.Model = network.Global{P: 0.2}
		for ; epoch < 100; epoch++ {
			r.RunEpoch(epoch)
		}
		// 40 epochs from a reseeding-window start span four windows.
		const runs = 40
		windows := runs / agg.ReseedEvery
		got := mallocs(func() {
			for i := 0; i < runs; i++ {
				r.RunEpoch(epoch)
				epoch++
			}
		})
		// Per epoch: the answer handed to the caller, a *quantile.Summary and
		// its entry array. Per reseeding window: the rank table of the new
		// window (a table header and its per-node array).
		if want := uint64(2*runs + 2*windows); got != want {
			t.Fatalf("%d steady-state TD Quantiles epochs allocate %d times, want %d (2 per epoch + 2 per reseeding window)",
				runs, got, want)
		}
	})
}

// mallocs counts the heap allocations fn makes — testing.AllocsPerRun
// without its integer average, so a pin can state an exact count.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRecyclerEngagedForAllAggregates pins that every aggregate shipping a
// synopsis codec also resolves the SynopsisRecycler fast path in the runner
// (quantile, sample and freq besides Count/Sum/Average), and that the
// heap-backed partials of quantile and sample resolve the PartialRecycler
// and the batch fuser too.
func TestRecyclerEngagedForAllAggregates(t *testing.T) {
	f := newFixture(25, 100)

	qa := quantile.NewAgg(f.tr, 25, 32, 16, nil)
	qr, err := New(Config[float64, *quantile.Partial, *quantile.Synopsis, *quantile.Summary]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, network.Global{P: 0}, 25),
		Agg:   qa,
		Value: func(_, node int) float64 { return float64(node) },
		Mode:  ModeTD, Seed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if qr.rec == nil || qr.prec == nil || qr.fuser == nil {
		t.Fatal("Quantiles runner did not resolve the synopsis/partial recyclers and the batch fuser")
	}

	sa := aggregate.NewUniformSample(25, 16)
	sr, err := New(Config[float64, *sample.Sample, *sample.Sample, *sample.Sample]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, network.Global{P: 0}, 25),
		Agg:   sa,
		Value: func(_, node int) float64 { return float64(node) },
		Mode:  ModeMultipath, Seed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.rec == nil {
		t.Fatal("UniformSample runner did not resolve the SynopsisRecycler fast path")
	}

	fa := freq.NewAgg(f.tr, freq.MinTotalLoad{Epsilon: 0.01, D: topo.TreeDominationFactor(f.tr, 0.05)},
		0.01, freq.DefaultParams(25, 0.01, 12))
	src := xrand.NewSource(25)
	fr, err := New(Config[[]freq.Item, *freq.Summary, *freq.Synopsis, freq.Result]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net: network.New(f.g, network.Global{P: 0}, 25),
		Agg: fa,
		Value: func(_, node int) []freq.Item {
			return []freq.Item{freq.Item(node % 7), freq.Item(src.Intn(50))}
		},
		Mode: ModeTD, Seed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr.rec == nil {
		t.Fatal("FrequentItems runner did not resolve the SynopsisRecycler fast path")
	}
	// The freq recycler must survive real epochs (pool reuse across fuse
	// cascades and decode-into) without perturbing answers: run a few epochs
	// against the allocating path.
	plain, err := New(Config[[]freq.Item, *freq.Summary, *freq.Synopsis, freq.Result]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net: network.New(f.g, network.Global{P: 0.2}, 25),
		Agg: fa,
		Value: func(_, node int) []freq.Item {
			return []freq.Item{freq.Item(node % 7), freq.Item(node % 13)}
		},
		Mode: ModeTD, Seed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 8; e++ {
		res := plain.RunEpoch(e)
		if res.TrueContrib == 0 {
			t.Fatal("freq TD run produced no contributors")
		}
	}
}
