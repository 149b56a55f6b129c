package main

import (
	"math"
	"sort"
	"time"
)

// The arithmetic every reported number rests on. All of it is pure, so the
// unit tests pin it without running a workload.

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between the two closest ranks; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// tailPercentile is the highest percentile a sample of n supports: p99 when
// ten samples lie beyond it (n ≥ 1000), otherwise the percentile that leaves
// exactly ten beyond, and the median for samples too small for any tail.
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// spread summarizes one metric across a workload's slices.
type spread struct {
	Q1, Median, Q3 float64
	N              int
}

// quartiles sorts a copy of xs and returns its quartiles.
func quartiles(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{Q1: percentile(s, 0.25), Median: percentile(s, 0.5), Q3: percentile(s, 0.75), N: len(s)}
}

// best is the reported value of a timing metric: the quartile on the good
// side. The host's interference is one-sided — it only ever makes a slice
// slower — so the good quartile is the steadiest estimate of the undisturbed
// cost (README, "Measurement protocol").
func (s spread) best(higherIsBetter bool) float64 {
	if higherIsBetter {
		return s.Q3
	}
	return s.Q1
}

// relSpread is the across-slice quartile distance as a share of the median.
func (s spread) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// selfTime is a layer's own cost: its span minus the part its child covers.
// The layers are measured on separately built stacks, so a difference below
// the stacks' noise can come out negative; it is reported as measured.
func selfTime(layer, child float64) float64 { return layer - child }

// scaleSampled extrapolates the time of calls of which only sampled were
// timed (Deliver is timed on one call in deliverSampleEvery).
func scaleSampled(sampledTotal time.Duration, sampled, calls int) time.Duration {
	if sampled == 0 {
		return 0
	}
	return time.Duration(float64(sampledTotal) * float64(calls) / float64(sampled))
}

// median sorts a copy of xs and returns its median.
func median(xs []float64) float64 { return quartiles(xs).Median }

// usOf converts a duration to fractional microseconds.
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
