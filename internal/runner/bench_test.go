package runner

import (
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/quantile"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
)

// BenchmarkRunEpoch is the wire refactor's performance guard: one full
// 600-node Count collection round per scheme, through real encoded
// envelopes. Compare against the facade-level BenchmarkEpochCount history
// when touching the dispatch or codec hot paths.
func BenchmarkRunEpoch(b *testing.B) {
	for _, mode := range []Mode{ModeTree, ModeMultipath, ModeTDCoarse, ModeTD} {
		b.Run(mode.String(), func(b *testing.B) {
			g := topo.NewRandomField(1, 600, 20, 20, topo.Point{X: 10, Y: 10}, 3.0)
			rings := topo.BuildRings(g)
			tr := topo.BuildRestrictedTree(g, rings, 1)
			topo.OpportunisticImprove(g, rings, tr, 1, 4)
			r, err := New(Config[struct{}, int64, *sketch.Sketch, float64]{
				Graph: g, Rings: rings, Tree: tr,
				Net:   network.New(g, network.Global{P: 0.2}, 1),
				Agg:   aggregate.NewCount(1),
				Value: func(int, int) struct{} { return struct{}{} },
				Mode:  mode,
				Seed:  1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RunEpoch(i)
			}
		})
	}
}

// BenchmarkQuantilesTD times the Quantiles aggregate under TD on a
// 300-sensor field at 30% loss, with the facade's configuration (k 100,
// 40-bitmap population sketch, ε 0.02 uniform gradient) and readings
// node%50: "steady" is one epoch of a warmed runner, "lifecycle" a fresh
// runner run for 50 epochs — the cycle a short-lived deployment pays.
func BenchmarkQuantilesTD(b *testing.B) {
	f := newFixture(1, 300)
	open := func() *Runner[float64, *quantile.Partial, *quantile.Synopsis, *quantile.Summary] {
		r, err := New(Config[float64, *quantile.Partial, *quantile.Synopsis, *quantile.Summary]{
			Graph: f.g, Rings: f.r, Tree: f.tr,
			Net:   network.New(f.g, network.Global{P: 0.3}, 1),
			Agg:   goldenQuantiles(f, 1),
			Value: func(_, node int) float64 { return float64(node % 50) },
			Mode:  ModeTD, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("steady", func(b *testing.B) {
		r := open()
		epoch := 0
		for ; epoch < 200; epoch++ {
			r.RunEpoch(epoch)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RunEpoch(epoch)
			epoch++
		}
	})
	b.Run("lifecycle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := open()
			for e := 0; e < 50; e++ {
				r.RunEpoch(e)
			}
		}
	})
}
