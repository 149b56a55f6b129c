package tributarydelta_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	td "tributarydelta"
)

// TestPipelinedPoolGuard is the CI smoke check that pipelined pool
// scheduling actually buys throughput where it should: with 4 deployments
// on a multi-core host, enqueue-and-drain must not fall behind lock-step
// rounds (it should win, since a slow deployment no longer gates the rest).
// A single-core host serializes both modes, so there is nothing to guard —
// skip. Opt-in via TD_BENCH_SMOKE=1 like the other perf guards.
func TestPipelinedPoolGuard(t *testing.T) {
	if os.Getenv("TD_BENCH_SMOKE") == "" {
		t.Skip("set TD_BENCH_SMOKE=1 to run the benchmark smoke guard")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("single core: lock-step and pipelined scheduling serialize identically")
	}
	const deployments = 4
	measure := func(pipelined bool) float64 {
		p := td.NewPool(0)
		defer p.Close()
		for i := 0; i < deployments; i++ {
			dep := td.NewSyntheticDeployment(uint64(i+1), 300)
			dep.SetGlobalLoss(0.2)
			s, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTD), td.WithSeed(uint64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Add(fmt.Sprintf("d%d", i), s); err != nil {
				t.Fatal(err)
			}
		}
		p.RunEpochs(10) // warm every session
		p.SetPipelined(pipelined)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.RunEpochs(2)
			}
			p.Barrier()
		})
		return float64(res.NsPerOp())
	}
	lock1, pipe1 := measure(false), measure(true)
	lock2, pipe2 := measure(false), measure(true)
	if hi, lo := math.Max(lock1, lock2), math.Min(lock1, lock2); hi > lo*1.3 {
		t.Logf("timing too noisy to judge (%.0f vs %.0f ns/op lock-step), skipping", lock1, lock2)
		return
	}
	lock := math.Min(lock1, lock2)
	pipe := math.Min(pipe1, pipe2)
	t.Logf("pool x%d: lock-step %.0f ns/op, pipelined %.0f ns/op (ratio %.3f)", deployments, lock, pipe, pipe/lock)
	if pipe > lock*1.10 {
		t.Errorf("pipelined pool rounds %.0f ns/op exceed lock-step %.0f ns/op by more than 10%%", pipe, lock)
	}
}
