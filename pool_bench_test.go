package tributarydelta_test

import (
	"fmt"
	"testing"

	td "tributarydelta"
)

// BenchmarkPoolEpochs compares aggregate epoch throughput when advancing D
// independent deployments sequentially (one after another, the pre-Pool
// way) versus concurrently through a Pool sharing a GOMAXPROCS worker
// budget. Deployments are embarrassingly parallel, so on a multi-core host
// the pooled variant scales with min(D, cores) — ≥2x at 4+ deployments with
// 2+ cores; on a single-core host the two match. Report with
//
//	go test -bench BenchmarkPoolEpochs -run '^$' .
func BenchmarkPoolEpochs(b *testing.B) {
	const (
		sensors        = 200
		roundsPerIter  = 2
		schemeForBench = td.SchemeTD
	)
	newSessions := func(b *testing.B, d int) []*td.Session[float64] {
		ss := make([]*td.Session[float64], d)
		for i := range ss {
			dep := td.NewSyntheticDeployment(uint64(i+1), sensors)
			dep.SetGlobalLoss(0.25)
			s, err := td.Open(dep, td.Count(), td.WithScheme(schemeForBench), td.WithSeed(uint64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			ss[i] = s
		}
		return ss
	}
	for _, d := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("deployments=%d/sequential", d), func(b *testing.B) {
			ss := newSessions(b, d)
			epoch := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range ss {
					for r := 0; r < roundsPerIter; r++ {
						s.RunEpoch(epoch + r)
					}
				}
				epoch += roundsPerIter
			}
			b.ReportMetric(float64(b.N*roundsPerIter*d)/b.Elapsed().Seconds(), "epochs/s")
		})
		b.Run(fmt.Sprintf("deployments=%d/pool", d), func(b *testing.B) {
			p := td.NewPool(0)
			defer p.Close()
			for i, s := range newSessions(b, d) {
				if err := p.Add(fmt.Sprintf("d%d", i), s); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.RunEpochs(roundsPerIter)
			}
			b.ReportMetric(float64(b.N*roundsPerIter*d)/b.Elapsed().Seconds(), "epochs/s")
		})
		b.Run(fmt.Sprintf("deployments=%d/pipelined", d), func(b *testing.B) {
			p := td.NewPool(0)
			defer p.Close()
			for i, s := range newSessions(b, d) {
				if err := p.Add(fmt.Sprintf("d%d", i), s); err != nil {
					b.Fatal(err)
				}
			}
			p.SetPipelined(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.RunEpochs(roundsPerIter)
			}
			// The enqueues return immediately; the barrier inside the timer
			// charges the full drain, so the metric is true throughput
			// without per-iteration synchronization.
			p.Barrier()
			b.ReportMetric(float64(b.N*roundsPerIter*d)/b.Elapsed().Seconds(), "epochs/s")
		})
	}
}
