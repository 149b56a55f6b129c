package runner

import (
	"math"
	"os"
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/workload"
)

// measureSDEpochNS times one steady-state epoch of the 600-sensor SD Count
// workload the facade benchmarks use (synthetic field, seed 1, Global(0.2)
// loss), with opts applied to the runner configuration.
func measureSDEpochNS(t *testing.T, opts ...func(*Config[struct{}, int64, *sketch.Sketch, float64])) float64 {
	t.Helper()
	sc := workload.NewSynthetic(1, 600)
	cfg := Config[struct{}, int64, *sketch.Sketch, float64]{
		Graph: sc.Graph, Rings: sc.Rings, Tree: sc.Tree,
		Net:   network.New(sc.Graph, network.Global{P: 0.2}, 1),
		Agg:   aggregate.NewCount(1),
		Value: func(int, int) struct{} { return struct{}{} },
		Mode:  ModeMultipath,
		Seed:  1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch := 0
	for ; epoch < 20; epoch++ { // warm pools, buffers and caches
		r.RunEpoch(epoch)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.RunEpoch(epoch)
			epoch++
		}
	})
	return float64(res.NsPerOp())
}

// skipUnlessBenchSmoke gates the timing guards: opt-in via TD_BENCH_SMOKE=1
// (they cost seconds) and never in -short mode.
func skipUnlessBenchSmoke(t *testing.T) {
	t.Helper()
	if os.Getenv("TD_BENCH_SMOKE") == "" {
		t.Skip("set TD_BENCH_SMOKE=1 to run the benchmark smoke guard")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
}

// checkWithinReference fails when the default SD epoch costs more than
// 1.10× the epoch with ref applied — a reference slow path the default must
// never fall behind. Samples interleave and the minima are judged; it skips
// when the reference timing is too noisy to judge.
func checkWithinReference(t *testing.T, what string, ref func(*Config[struct{}, int64, *sketch.Sketch, float64])) {
	t.Helper()
	got1 := measureSDEpochNS(t)
	ref1 := measureSDEpochNS(t, ref)
	got2 := measureSDEpochNS(t)
	ref2 := measureSDEpochNS(t, ref)
	if hi, lo := math.Max(ref1, ref2), math.Min(ref1, ref2); hi > lo*1.3 {
		t.Logf("timing too noisy to judge (%.0f vs %.0f ns/op without %s), skipping", ref1, ref2, what)
		return
	}
	base := math.Min(ref1, ref2)
	got := math.Min(got1, got2)
	t.Logf("SD: without %s %.0f ns/op, with %.0f ns/op (ratio %.3f)", what, base, got, got/base)
	if got > base*1.10 {
		t.Errorf("SD epoch with %s %.0f ns/op exceeds %.0f ns/op without it by more than 10%%", what, got, base)
	}
}

// TestSDMemoGuard is the CI smoke check that the epoch-over-epoch synopsis
// memoization never becomes a pessimization: the SD epoch with the caches
// engaged must stay within 10% of the cache-free reference path on the
// lossy bench workload, where clean-path hits are rare and the guard is
// pure overhead accounting.
func TestSDMemoGuard(t *testing.T) {
	skipUnlessBenchSmoke(t)
	checkWithinReference(t, "memoization",
		func(c *Config[struct{}, int64, *sketch.Sketch, float64]) { c.noMemo = true })
}

// TestSDFusedUnionGuard is the CI smoke check that the fused multi-sketch
// unions never become a pessimization: the SD epoch with one-pass inbox
// folds must stay within 10% of the per-sender union loop. (On the bench
// workload the fused path should win outright — the bound is deliberately
// loose so scheduler noise can't flake the guard.)
func TestSDFusedUnionGuard(t *testing.T) {
	skipUnlessBenchSmoke(t)
	checkWithinReference(t, "fused unions",
		func(c *Config[struct{}, int64, *sketch.Sketch, float64]) { c.noBatchFuse = true })
}
