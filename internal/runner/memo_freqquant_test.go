package runner

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tributarydelta/internal/freq"
	"tributarydelta/internal/network"
	"tributarydelta/internal/quantile"
	"tributarydelta/internal/topo"
)

// The frequent-items and quantile aggregates joined the memoization layer in
// this revision: their conversions cache per boundary child and their frames
// reuse whole across clean epochs, keyed by the same reseeding windows as
// Count/Sum. The transparency contract is identical — bit-identical answers
// and stats with the caches engaged or disabled, across modes and loss
// rates.

// runSeriesWith is runSeries for non-scalar answers: render canonicalizes
// the per-epoch result (map iteration order must not leak into the string).
func runSeriesWith[V, P, S, R any](r *Runner[V, P, S, R], epochs int, render func(R) string) []string {
	out := make([]string, 0, epochs)
	for e := 0; e < epochs; e++ {
		res := r.RunEpoch(e)
		out = append(out, fmt.Sprintf("%s/%.17g/%d/%d/%d",
			render(res.Answer), res.EstContrib, res.TrueContrib, res.DeltaSize, res.Switched))
	}
	out = append(out, fmt.Sprintf("bytes=%d words=%d losses=%d",
		r.Stats.TotalBytes(), r.Stats.TotalWords(), r.Stats.TotalLosses()))
	return out
}

func renderFreq(res freq.Result) string {
	items := make([]freq.Item, 0, len(res.Estimates))
	for u := range res.Estimates {
		items = append(items, u)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "N=%.17g", res.NEst)
	for _, u := range items {
		fmt.Fprintf(&b, ",%d=%.17g", u, res.Estimates[u])
	}
	return b.String()
}

func renderQuantile(s *quantile.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d,eps=%.17g", s.N, s.Eps)
	for _, e := range s.Entries {
		fmt.Fprintf(&b, ",%.17g:%d:%d", e.V, e.RMin, e.RMax)
	}
	return b.String()
}

// TestFreqQuantileMemoMatchesNoMemo pins cache transparency for the two
// structured aggregates across the same matrix as TestMemoMatchesNoMemo.
// 70 epochs cross several reseeding periods (ReseedEvery defaults to 10 for
// both), many adaptation decisions in the TD modes, and a mid-run reading
// change that dirties part of the field.
func TestFreqQuantileMemoMatchesNoMemo(t *testing.T) {
	const epochs = 70
	for _, mode := range []Mode{ModeMultipath, ModeTDCoarse, ModeTD} {
		for _, loss := range []float64{0, 0.25} {
			label := fmt.Sprintf("%v/loss=%v", mode, loss)
			f := newFixture(41, 120)

			mkFreq := func(noMemo bool) *Runner[[]freq.Item, *freq.Summary, *freq.Synopsis, freq.Result] {
				fa := freq.NewAgg(f.tr, freq.MinTotalLoad{Epsilon: 0.01, D: topo.TreeDominationFactor(f.tr, 0.05)},
					0.01, freq.DefaultParams(41, 0.01, 12))
				r, err := New(Config[[]freq.Item, *freq.Summary, *freq.Synopsis, freq.Result]{
					Graph: f.g, Rings: f.r, Tree: f.tr,
					Net: network.New(f.g, network.Global{P: loss}, 41),
					Agg: fa,
					Value: func(epoch, node int) []freq.Item {
						return []freq.Item{freq.Item(node % 7), freq.Item((node*31 + epoch/20) % 40)}
					},
					Mode: mode, Seed: 41, noMemo: noMemo,
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			memoF := mkFreq(false)
			if memoF.memo == nil {
				t.Fatal("FrequentItems runner did not resolve the SynopsisMemoizer extension")
			}
			compareSeries(t, "freq/"+label,
				runSeriesWith(memoF, epochs, renderFreq),
				runSeriesWith(mkFreq(true), epochs, renderFreq))

			mkQuant := func(noMemo bool) *Runner[float64, *quantile.Partial, *quantile.Synopsis, *quantile.Summary] {
				qa := quantile.NewAgg(f.tr, 41, 32, 16, nil)
				r, err := New(Config[float64, *quantile.Partial, *quantile.Synopsis, *quantile.Summary]{
					Graph: f.g, Rings: f.r, Tree: f.tr,
					Net: network.New(f.g, network.Global{P: loss}, 41),
					Agg: qa,
					Value: func(epoch, node int) float64 {
						return float64(node%50) + float64(epoch/25)
					},
					Mode: mode, Seed: 41, noMemo: noMemo,
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			memoQ := mkQuant(false)
			if memoQ.memo == nil {
				t.Fatal("Quantiles runner did not resolve the SynopsisMemoizer extension")
			}
			compareSeries(t, "quantile/"+label,
				runSeriesWith(memoQ, epochs, renderQuantile),
				runSeriesWith(mkQuant(true), epochs, renderQuantile))
		}
	}
}
