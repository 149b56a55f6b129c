package tributarydelta_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	td "tributarydelta"
)

// measureEpochNS times one steady-state 600-node Count epoch for the given
// scheme.
func measureEpochNS(b testing.TB, scheme td.Scheme, extra ...td.Option) float64 {
	dep := td.NewSyntheticDeployment(1, 600)
	dep.SetGlobalLoss(0.2)
	opts := append([]td.Option{td.WithScheme(scheme)}, extra...)
	s, err := td.Open(dep, td.Count(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	epoch := 0
	for ; epoch < 20; epoch++ { // warm pools, buffers and caches
		s.RunEpoch(epoch)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.RunEpoch(epoch)
			epoch++
		}
	})
	return float64(res.NsPerOp())
}

// TestUDPBatchGuard is the CI smoke check that datagram coalescing never
// becomes a pessimization: the UDP epoch with batching on must stay within
// 5% of the one-frame-per-datagram data plane. (It should win outright — a
// batched epoch costs a handful of sendmmsg calls against hundreds of
// sendto — so the bound mostly guards against the coalescing bookkeeping
// rotting.) Opt-in via TD_BENCH_SMOKE=1; self-skips when the loopback
// timing is too noisy to judge, like the other perf guards.
func TestUDPBatchGuard(t *testing.T) {
	if os.Getenv("TD_BENCH_SMOKE") == "" {
		t.Skip("set TD_BENCH_SMOKE=1 to run the benchmark smoke guard")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	udp := []td.Option{td.WithUDPTransport(4)}
	batch1 := measureEpochNS(t, td.SchemeTD, udp...)
	single1 := measureEpochNS(t, td.SchemeTD, append(udp, td.WithDatagramBatching(false))...)
	batch2 := measureEpochNS(t, td.SchemeTD, udp...)
	single2 := measureEpochNS(t, td.SchemeTD, append(udp, td.WithDatagramBatching(false))...)
	if hi, lo := math.Max(single1, single2), math.Min(single1, single2); hi > lo*1.3 {
		t.Logf("timing too noisy to judge (%.0f vs %.0f ns/op unbatched), skipping", single1, single2)
		return
	}
	single := math.Min(single1, single2)
	batch := math.Min(batch1, batch2)
	t.Logf("UDP: unbatched %.0f ns/op, batched %.0f ns/op (ratio %.3f)", single, batch, batch/single)
	if batch > single*1.05 {
		t.Errorf("batched UDP epoch %.0f ns/op exceeds unbatched %.0f ns/op by more than 5%%", batch, single)
	}
}

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
			s, err := td.NewCountSession(dep, td.SchemeTD, uint64(i+1))
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
