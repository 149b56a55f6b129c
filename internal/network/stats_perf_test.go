package network_test

import (
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/workload"
)

// statsOpsPerTAGEpoch is the accounting work of one 600-node TAG epoch: one
// AddTxBytes per sensor transmission plus the losses at Global(0.2).
const statsOpsPerTAGEpoch = 600

// measureStatsEpochNS times the Stats mutator mix of one TAG epoch.
func measureStatsEpochNS() float64 {
	s := network.NewStats(600)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := 1 + i%599
			s.AddTxBytes(v, v%20, 15)
			if i%5 == 0 { // ~20% loss accounting
				s.AddLoss(v)
			}
		}
	})
	// NsPerOp truncates to whole nanoseconds, which times 600 would move the
	// reading in 600 ns steps against a budget of a few µs.
	return float64(res.T.Nanoseconds()) / float64(res.N) * statsOpsPerTAGEpoch
}

// measureTAGEpochNS times one steady-state epoch of the 600-sensor TAG Count
// workload of BenchmarkEpochCount/TAG (synthetic field, seed 1, Global(0.2)
// loss) on the host running the test.
func measureTAGEpochNS(t *testing.T) float64 {
	t.Helper()
	sc := workload.NewSynthetic(1, 600)
	r, err := runner.New(runner.Config[struct{}, int64, *sketch.Sketch, float64]{
		Graph: sc.Graph, Rings: sc.Rings, Tree: sc.TAGTree,
		Net:   network.New(sc.Graph, network.Global{P: 0.2}, 1),
		Agg:   aggregate.NewCount(1),
		Value: func(int, int) struct{} { return struct{}{} },
		Mode:  runner.ModeTree,
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch := 0
	for ; epoch < 20; epoch++ { // warm pools and buffers
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

// TestStatsOverheadWithinTAGBudget bounds the per-epoch accounting bill: the
// Stats mutators of one 600-node TAG epoch must cost less than 5% of that
// TAG epoch, both timed on the same host (a mutex on the mutators once cost
// ~6% of it). It skips rather than flakes when the machine is too noisy to
// time reliably.
func TestStatsOverheadWithinTAGBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	a, b := measureStatsEpochNS(), measureStatsEpochNS()
	ea, eb := measureTAGEpochNS(t), measureTAGEpochNS(t)
	lo, hi := min(a, b), max(a, b)
	if hi > lo*1.5 {
		t.Skipf("timing too noisy to judge (%.0fns vs %.0fns of stats per epoch)", a, b)
	}
	epochLo, epochHi := min(ea, eb), max(ea, eb)
	if epochHi > epochLo*1.5 {
		t.Skipf("timing too noisy to judge (%.0fns vs %.0fns per TAG epoch)", ea, eb)
	}
	budget := 0.05 * epochLo
	t.Logf("stats %.0fns per TAG epoch of %.0fns (%.1f%%)", lo, epochLo, 100*lo/epochLo)
	if lo > budget {
		t.Fatalf("stats accounting costs %.0fns per 600-node TAG epoch, budget %.0fns (5%% of the %.0fns epoch)",
			lo, budget, epochLo)
	}
}
