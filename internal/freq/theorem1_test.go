package freq

import (
	"math"
	"testing"

	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// TestTheorem1AccuracyRegime empirically checks the Theorem 1 guarantee in
// the accuracy-preserving regime: with an accuracy-preserving ⊕ (large
// enough per-item sketches for relative error εc), the algorithm's final
// estimates satisfy
//
//	(1 − εc)·(c(u) − ε·N) ≤ c̃(u) ≤ (1 + εc)·c(u)
//
// with high probability. The bound is statistical (the theorem holds with
// probability 1−δ), so the test averages over epochs and allows the
// sampling slack of the finite trial count.
func TestTheorem1AccuracyRegime(t *testing.T) {
	const (
		epsilon = 0.01
		epsC    = 0.2 // 0.78/sqrt(KItem): KItem = 16 gives ~0.2
		nodes   = 40
		perNode = 150
		epochs  = 10
	)
	p := Params{
		Seed:    77,
		Epsilon: epsilon,
		Eta:     1.5,
		LogN:    math.Log2(nodes*perNode) + 1,
		KItem:   16,
		KTotal:  40,
	}

	violationsLow, violationsHigh, checks := 0, 0, 0
	for epoch := 0; epoch < epochs; epoch++ {
		src := xrand.NewSource(1000 + uint64(epoch))
		z := xrand.NewZipf(src, 60, 1.3)
		truth := make(map[Item]float64)
		n := 0.0
		all := NewSynopsis()
		for owner := 1; owner <= nodes; owner++ {
			items := make([]Item, perNode)
			for i := range items {
				items[i] = Item(z.Draw())
				truth[items[i]]++
				n++
			}
			all.Fuse(Generate(items, epoch, owner, p), p)
		}
		est, _ := all.Evaluate(p)
		// Check the two-sided bound for every heavy item (where the bound
		// is non-vacuous). Allow 3 standard errors of slack on top of εc.
		slack := 3 * epsC / math.Sqrt(1) // per-item, single observation
		for u, c := range truth {
			if c < 3*epsilon*n {
				continue // the lower bound is (near) vacuous
			}
			checks++
			e := est[u]
			if lower := (1 - epsC - slack) * (c - epsilon*n); e < lower {
				violationsLow++
			}
			if upper := (1 + epsC + slack) * c; e > upper {
				violationsHigh++
			}
		}
	}
	if checks == 0 {
		t.Fatal("no heavy items checked — bad test setup")
	}
	// With 3σ slack, violations should be rare (the theorem's δ).
	if frac := float64(violationsLow+violationsHigh) / float64(checks); frac > 0.02 {
		t.Fatalf("Theorem 1 bound violated for %.1f%% of %d checks (low=%d high=%d)",
			100*frac, checks, violationsLow, violationsHigh)
	}
}

// TestMaxLoadBoundedByClasses checks the other half of Theorem 1: the
// per-link load stays bounded — a synopsis holds at most log N classes and
// the class thresholding keeps each class's item set small, so the message
// never approaches the full item universe.
func TestMaxLoadBoundedByClasses(t *testing.T) {
	const (
		nodes   = 60
		perNode = 200
	)
	p := DefaultParams(88, 0.01, math.Log2(nodes*perNode)+1)
	src := xrand.NewSource(2000)
	z := xrand.NewZipf(src, 5000, 0.8) // a heavy-tailed, wide universe
	all := NewSynopsis()
	maxWords := 0
	distinct := make(map[Item]bool)
	for owner := 1; owner <= nodes; owner++ {
		items := make([]Item, perNode)
		for i := range items {
			items[i] = Item(z.Draw())
			distinct[items[i]] = true
		}
		all.Fuse(Generate(items, 0, owner, p), p)
		if w := all.Words(p); w > maxWords {
			maxWords = w
		}
	}
	if len(all.ByClass) > int(p.LogN)+1 {
		t.Fatalf("%d classes exceed logN+1 = %v", len(all.ByClass), p.LogN+1)
	}
	// Without thresholding the synopsis would carry every distinct item.
	// Pruning only fires on class promotions, so between promotions the
	// synopsis accumulates; require meaningful pruning at the peak (≥ 25%
	// under this weakly skewed stream) and that the peak respects Theorem
	// 1's per-link bound O(log²N/ε · 1/εc²) counters. An item costs at
	// least its id byte plus a KItem-bitmap sketch at one byte per bitmap
	// (the trimmed codec's narrowest non-empty form), so this baseline is a
	// floor on what the unpruned synopsis would weigh.
	unpruned := len(distinct) * (2 + p.KItem) / wire.BytesPerWord
	if float64(maxWords) > 0.75*float64(unpruned) {
		t.Fatalf("synopsis peaked at %d words — thresholding pruned under 25%% (unpruned baseline %d, %d distinct items)",
			maxWords, unpruned, len(distinct))
	}
	epsC := 0.78 / math.Sqrt(float64(p.KItem))
	theoremBound := p.LogN * p.LogN / p.Epsilon / (epsC * epsC)
	if float64(maxWords) > theoremBound {
		t.Fatalf("peak %d words exceeds the Theorem 1 bound %v", maxWords, theoremBound)
	}
	// After the final promotions the standing synopsis is smaller than the
	// mid-fusion peak.
	if final := all.Words(p); final > maxWords {
		t.Fatalf("final synopsis %d larger than observed peak %d", final, maxWords)
	}
}
