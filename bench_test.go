package tributarydelta_test

// One benchmark per table and figure of the paper's evaluation (§7), each
// regenerating its artifact through the experiments harness in Quick mode
// (reduced node counts and epochs — the full-scale versions are run with
// cmd/tdbench; see DESIGN.md). Micro-benchmarks cover the hot substrate
// operations.

import (
	"testing"

	td "tributarydelta"

	"tributarydelta/internal/experiments"
	"tributarydelta/internal/freq"
	"tributarydelta/internal/network"
	"tributarydelta/internal/quantile"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/xrand"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Options{Seed: uint64(i + 1), Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFig2(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5a(b *testing.B)   { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)   { benchExperiment(b, "fig5b") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7a(b *testing.B)   { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)   { benchExperiment(b, "fig7b") }
func BenchmarkFig8(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9a(b *testing.B)   { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)   { benchExperiment(b, "fig9b") }
func BenchmarkLabData(b *testing.B) { benchExperiment(b, "labdata") }

// BenchmarkEpochCount measures one full 600-node Count collection round per
// scheme — the simulator's core loop.
func BenchmarkEpochCount(b *testing.B) {
	for _, scheme := range []td.Scheme{td.SchemeTAG, td.SchemeSD, td.SchemeTD} {
		b.Run(scheme.String(), func(b *testing.B) {
			dep := td.NewSyntheticDeployment(1, 600)
			dep.SetGlobalLoss(0.2)
			s, err := td.Open(dep, td.Count(), td.WithScheme(scheme), td.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunEpoch(i)
			}
		})
	}
}

// BenchmarkSketchInsert measures FM sketch insertion throughput.
func BenchmarkSketchInsert(b *testing.B) {
	s := sketch.New(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InsertHash(xrand.Mix64(uint64(i)))
	}
}

// BenchmarkSketchAddCountLarge measures the Considine-style simulated
// insertion of a large count.
func BenchmarkSketchAddCountLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sketch.New(40)
		s.AddCount(1, uint64(i), 1_000_000)
	}
}

// BenchmarkFreqTreeRun measures one in-tree Min Total-load frequent items
// pass over the lab deployment.
func BenchmarkFreqTreeRun(b *testing.B) {
	g := topo.NewLabField()
	r := topo.BuildRings(g)
	tr := topo.BuildRestrictedTree(g, r, 1)
	topo.OpportunisticImprove(g, r, tr, 1, 8)
	src := xrand.NewSource(9)
	z := xrand.NewZipf(src, 1000, 1.1)
	perNode := make(map[int][]freq.Item)
	for v := 1; v < g.N(); v++ {
		items := make([]freq.Item, 500)
		for i := range items {
			items[i] = freq.Item(z.Draw())
		}
		perNode[v] = items
	}
	d := topo.TreeDominationFactor(tr, 0.05)
	grad := freq.MinTotalLoad{Epsilon: 0.001, D: d}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freq.RunTree(tr, func(v int) []freq.Item { return perNode[v] }, grad)
	}
}

// BenchmarkQuantileMergePrune measures the mergeable summary's core cycle.
func BenchmarkQuantileMergePrune(b *testing.B) {
	src := xrand.NewSource(3)
	mk := func() *quantile.Summary {
		vals := make([]float64, 500)
		for i := range vals {
			vals[i] = src.Float64() * 1000
		}
		return quantile.FromUnsorted(vals)
	}
	a, c := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := quantile.Merge(a, c)
		m.Prune(100)
	}
}

// BenchmarkAdaptationDecision measures one TD controller decision over a
// 600-node labeled graph.
func BenchmarkAdaptationDecision(b *testing.B) {
	dep := td.NewSyntheticDeployment(1, 600)
	dep.SetGlobalLoss(0.3)
	s, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTD), td.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch(i) // includes a decision every AdaptEvery epochs
	}
}

// BenchmarkRingsConstruction measures topology building.
func BenchmarkRingsConstruction(b *testing.B) {
	g := topo.NewRandomField(1, 600, 20, 20, topo.Point{X: 10, Y: 10}, 3.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := topo.BuildRings(g)
		tr := topo.BuildRestrictedTree(g, r, uint64(i))
		topo.OpportunisticImprove(g, r, tr, uint64(i), 8)
	}
}

// BenchmarkDelivery measures the per-link loss decision.
func BenchmarkDelivery(b *testing.B) {
	g := topo.NewRandomField(1, 100, 20, 20, topo.Point{X: 10, Y: 10}, 3.0)
	n := network.New(g, network.Global{P: 0.3}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Delivered(i, 0, 1, 2)
	}
}
