package runner

import (
	"fmt"
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/sketch"
)

// The epoch-over-epoch memoization (memo.go) is a pure cache: every answer,
// contributing estimate and stats counter must be bit-identical with the
// caches engaged and disabled — under loss (partial
// reuse), under zero loss (the fully-clean steady state), across reseeding
// period rollovers, adaptation switches, changing readings, and decision
// epochs, whose frames carry the §4.2 statistics the others leave out.

// runSeries executes epochs and flattens the observable outcome.
func runSeries[V, P, S any](r *Runner[V, P, S, float64], epochs int) []string {
	out := make([]string, 0, epochs)
	for e := 0; e < epochs; e++ {
		res := r.RunEpoch(e)
		out = append(out, fmt.Sprintf("%.17g/%.17g/%d/%d/%d",
			res.Answer, res.EstContrib, res.TrueContrib, res.DeltaSize, res.Switched))
	}
	out = append(out, fmt.Sprintf("bytes=%d words=%d losses=%d",
		r.Stats.TotalBytes(), r.Stats.TotalWords(), r.Stats.TotalLosses()))
	return out
}

func compareSeries(t *testing.T, label string, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: epoch %d diverged: memo %q vs nomemo %q", label, i, got[i], want[i])
		}
	}
}

// TestMemoMatchesNoMemo pins the cache-transparency contract across modes
// and loss rates, for Count and Sum. 140 epochs cross
// several reseeding periods and (in the TD modes) many adaptation
// decisions.
func TestMemoMatchesNoMemo(t *testing.T) {
	const epochs = 140
	for _, mode := range []Mode{ModeMultipath, ModeTDCoarse, ModeTD} {
		for _, loss := range []float64{0, 0.25} {
			label := fmt.Sprintf("%v/loss=%v", mode, loss)
			f := newFixture(31, 250)
			base := countRunner(t, f, mode, network.Global{P: loss}, 31,
				func(c *Config[struct{}, int64, *sketch.Sketch, float64]) {
					c.noMemo = true
				})
			memo := countRunner(t, f, mode, network.Global{P: loss}, 31)
			if memo.memo == nil {
				t.Fatal("Count runner did not resolve the SynopsisMemoizer extension")
			}
			compareSeries(t, label, runSeries(memo, epochs), runSeries(base, epochs))
		}
	}
	// Sum exercises the binomial-simulation path (readings > the direct
	// insertion threshold) and a reading that changes mid-run.
	for _, loss := range []float64{0, 0.25} {
		label := fmt.Sprintf("Sum/loss=%v", loss)
		value := func(epoch, node int) float64 {
			if epoch >= 70 && node%7 == 0 {
				return float64(node%50) * 3 // a third of the field steps at epoch 70
			}
			return float64(node % 50)
		}
		f := newFixture(32, 250)
		mk := func(noMemo bool) *Runner[float64, float64, *sketch.Sketch, float64] {
			return sumRunner(t, f, ModeTD, network.Global{P: loss}, 32,
				func(c *Config[float64, float64, *sketch.Sketch, float64]) {
					c.noMemo = noMemo
					c.Value = value
				})
		}
		compareSeries(t, label, runSeries(mk(false), 140), runSeries(mk(true), 140))
	}
}

// TestMemoCleanSteadyState pins that the clean path actually engages: under
// zero loss with constant readings, every multi-path node must reuse its
// frame once the caches are primed (within a reseeding period).
func TestMemoCleanSteadyState(t *testing.T) {
	f := newFixture(33, 250)
	r := countRunner(t, f, ModeMultipath, network.Global{P: 0}, 33,
		func(c *Config[struct{}, int64, *sketch.Sketch, float64]) {
			c.AdaptEvery = 1 << 20 // one endless reseeding period
		})
	r.cfg.Agg.(*aggregate.Count).ReseedEvery = 0
	r.RunEpoch(0)
	r.RunEpoch(1)
	clean := 0
	total := 0
	r.RunEpoch(2)
	for v := 1; v < f.g.N(); v++ {
		if !r.participates(v) {
			continue
		}
		total++
		if r.memoState[v].clean {
			clean++
		}
	}
	if clean != total {
		t.Fatalf("steady state: %d of %d nodes clean, want all", clean, total)
	}
}

// TestMemoReseedInvalidates pins that a reseeding-period rollover busts the
// clean state (the frame bytes legitimately change with the new hash).
func TestMemoReseedInvalidates(t *testing.T) {
	f := newFixture(34, 200)
	r := countRunner(t, f, ModeMultipath, network.Global{P: 0}, 34) // ReseedEvery=10
	for e := 0; e < 9; e++ {
		r.RunEpoch(e)
	}
	if !r.memoState[r.byLevel[r.maxLevel][0]].clean {
		t.Fatal("expected clean nodes inside the period")
	}
	r.RunEpoch(10) // new period: hashes re-drawn
	for v := 1; v < f.g.N(); v++ {
		if r.memoState[v].clean {
			t.Fatalf("node %d clean across a reseeding boundary", v)
		}
	}
}
