package quantile

import (
	"math"
	"sort"

	"tributarydelta/internal/sample"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// This file implements the aggregate.Aggregate contract for quantiles,
// combining the two quantile substrates the paper names: in the tributaries
// the mergeable ε-approximate summaries of this package, driven by a §6.1.4
// precision gradient; in the delta the duplicate-insensitive bottom-k
// uniform sample of §5 (the paper's route to multi-path quantiles), paired
// with an FM sketch that estimates how many readings the sample represents.
// At the tributary/delta boundary a subtree's summary cannot be converted
// into sample items (identities are gone), so the tree partial carries the
// subtree's bottom-k sample alongside its summary and conversion extracts
// it — deterministic in (epoch, owner), hence idempotent under multi-path
// replication.

// Partial is the tree-side partial result: the subtree's mergeable summary
// plus its bottom-k sample, kept in lock-step so the boundary conversion has
// a duplicate-insensitive form to hand to the delta.
type Partial struct {
	// Sum is the subtree's rank summary (pruned per the precision gradient).
	Sum *Summary
	// Smp is the subtree's bottom-k sample of the same readings.
	Smp *sample.Sample
}

// Synopsis is the delta-side synopsis: the fused bottom-k sample and an FM
// count sketch estimating the number of readings the delta covers (the
// population size the sample's order statistics are scaled by).
type Synopsis struct {
	// Smp is the duplicate-insensitive bottom-k sample.
	Smp *sample.Sample
	// Cnt estimates the number of readings represented in Smp's population.
	Cnt *sketch.Sketch
}

// Agg is the Tributary-Delta quantiles aggregate. Construct with NewAgg.
// It implements aggregate.Aggregate[float64, *Partial, *Synopsis, *Summary]:
// one reading per node per epoch, answered by a merged rank summary at the
// base station.
type Agg struct {
	// Seed drives the sample's rank hashes and the count sketch.
	Seed uint64
	// K is the bottom-k sample capacity (delta-side accuracy knob).
	K int
	// CountK is the FM bitmap count of the delta population sketch.
	CountK int
	// Gradient budgets tree-side prune error per node height; nil keeps
	// tree summaries exact (no pruning).
	Gradient Gradient
	// ReseedEvery is the hash reseeding period in epochs, matching the
	// simple aggregates: within a period the count-sketch seed and the
	// sample rank realization are fixed — what makes boundary conversions
	// memoizable across epochs — and between periods both re-draw so
	// multi-epoch answers de-correlate. 0 never reseeds.
	ReseedEvery int
	// heights indexes the precision gradient per node.
	heights []int
	// ranks memoizes the sample ranks of the current reseeding window, so
	// decoding a sample item costs a table lookup, not a hash.
	ranks *sample.RankMemo

	// scratchSmp/scratchCnt/scratchCnts are the EvalBase delta-merge
	// accumulators, reused epoch to epoch (EvalBase runs on the dispatch
	// goroutine only).
	scratchSmp  *sample.Sample
	scratchCnt  *sketch.Sketch
	scratchCnts []*sketch.Sketch
}

// NewAgg assembles the quantiles aggregate over a concrete tree (heights
// drive the gradient). k is the bottom-k sample capacity and countK the FM
// bitmap count of the delta population sketch; g may be nil for exact
// (unpruned) tree summaries. The hash reseeding period defaults to 10
// epochs, like the simple aggregates.
func NewAgg(tree *topo.Tree, seed uint64, k, countK int, g Gradient) *Agg {
	heights := tree.Heights()
	return &Agg{Seed: seed, K: k, CountK: countK, Gradient: g, ReseedEvery: 10,
		heights: heights, ranks: sample.NewRankMemo(len(heights))}
}

// epochKey identifies the hash-reseeding window epoch falls in; the count
// seed and the sample rank epoch both hash the key, never the raw epoch.
func (a *Agg) epochKey(epoch int) uint64 {
	if a.ReseedEvery <= 0 {
		return 0
	}
	return uint64(epoch / a.ReseedEvery)
}

// countSeed namespaces the delta population sketch per reseeding window.
func (a *Agg) countSeed(epoch int) uint64 {
	return xrand.Hash(a.Seed, 0x51AA, a.epochKey(epoch))
}

// rankEpoch is the epoch identity fed to the bottom-k sample's rank hash: the
// reseeding window, not the raw epoch, so a node's rank holds still within a
// window (Local depends on the epoch only through the key — the memoizer
// contract) and re-draws at rollover. Duplicate insensitivity needs only
// within-epoch identity, which the node id provides.
func (a *Agg) rankEpoch(epoch int) int { return int(a.epochKey(epoch)) }

// Name implements aggregate.Aggregate.
func (a *Agg) Name() string { return "Quantiles" }

// Local implements aggregate.Aggregate: a one-reading summary plus the
// reading's sample entry.
func (a *Agg) Local(epoch, node int, v float64) *Partial {
	smp := sample.New(a.K)
	smp.Add(a.Seed, a.rankEpoch(epoch), node, v)
	return &Partial{Sum: FromSorted([]float64{v}), Smp: smp}
}

// MergeTree implements aggregate.Aggregate: summaries merge by the
// mergeable-summaries construction, samples by bottom-k union.
func (a *Agg) MergeTree(acc, in *Partial) *Partial {
	acc.Sum = Merge(acc.Sum, in.Sum)
	acc.Smp.Merge(in.Smp)
	return acc
}

// FinalizeTree implements aggregate.Aggregate: the §6.1.4 prune at the
// node's height, spending the gradient's per-level budget exactly once per
// node after all children are folded.
func (a *Agg) FinalizeTree(_, node int, p *Partial) *Partial {
	if a.Gradient == nil {
		return p
	}
	h := a.heights[node]
	delta := a.Gradient.Eps(h) - a.Gradient.Eps(h-1)
	if delta > 0 {
		p.Sum.Prune(int(math.Ceil(1 / delta)))
	}
	return p
}

// AppendPartial implements aggregate.Aggregate.
func (a *Agg) AppendPartial(dst []byte, p *Partial) []byte {
	dst = p.Sum.AppendWire(dst)
	return p.Smp.AppendWire(dst)
}

// DecodePartial implements aggregate.Aggregate.
func (a *Agg) DecodePartial(data []byte) (*Partial, error) {
	r := wire.NewReader(data)
	sum, err := ReadWire(r)
	if err != nil {
		return nil, err
	}
	smp, err := sample.ReadWire(r, a.Seed, a.ranks, a.K)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &Partial{Sum: sum, Smp: smp}, nil
}

// Convert implements aggregate.Aggregate: the boundary conversion hands the
// subtree's bottom-k sample to the delta and registers the subtree's exact
// reading count (p.Sum.N) in the population sketch under the unique tree
// sender's identity — a pure function of (epoch, owner, p), so multi-path
// replication fuses idempotently.
func (a *Agg) Convert(epoch, owner int, p *Partial) *Synopsis {
	cnt := sketch.New(a.CountK)
	cnt.AddCount(a.countSeed(epoch), uint64(owner), p.Sum.N)
	return &Synopsis{Smp: p.Smp.Clone(), Cnt: cnt}
}

// Fuse implements aggregate.Aggregate.
func (a *Agg) Fuse(acc, in *Synopsis) *Synopsis {
	acc.Smp.Merge(in.Smp)
	acc.Cnt.Union(in.Cnt)
	return acc
}

// NewSynopsis implements aggregate.SynopsisRecycler.
func (a *Agg) NewSynopsis() *Synopsis {
	return &Synopsis{Smp: sample.New(a.K), Cnt: sketch.New(a.CountK)}
}

// ConvertInto implements aggregate.SynopsisRecycler: Convert into a recycled
// synopsis.
func (a *Agg) ConvertInto(epoch, owner int, p *Partial, dst *Synopsis) *Synopsis {
	dst.Smp.CopyFrom(p.Smp)
	dst.Cnt.Reset()
	dst.Cnt.AddCount(a.countSeed(epoch), uint64(owner), p.Sum.N)
	return dst
}

// DecodeSynopsisInto implements aggregate.SynopsisRecycler.
func (a *Agg) DecodeSynopsisInto(data []byte, dst *Synopsis) (*Synopsis, error) {
	r := wire.NewReader(data)
	if err := sample.ReadWireInto(r, a.Seed, a.ranks, dst.Smp); err != nil {
		return nil, err
	}
	sketch.ReadWireInto(r, dst.Cnt)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return dst, nil
}

// SynopsisEpochKey implements aggregate.SynopsisMemoizer: the reseeding
// window shared by the count seed and the sample rank realization. Within a
// window ConvertInto is a pure function of (owner, partial), so the epoch
// engine may cache converted boundary partials and reuse whole frames.
func (a *Agg) SynopsisEpochKey(epoch int) uint64 { return a.epochKey(epoch) }

// PartialEqual implements aggregate.SynopsisMemoizer: conversion extracts
// the bottom-k sample verbatim and registers Sum.N in the population sketch
// — the summary's entries and error bound never reach the synopsis — so two
// partials convert identically exactly when those agree.
func (a *Agg) PartialEqual(x, y *Partial) bool {
	if x == nil || y == nil {
		return x == y
	}
	if x.Sum.N != y.Sum.N {
		return false
	}
	xi, yi := x.Smp.Items(), y.Smp.Items()
	if len(xi) != len(yi) {
		return false
	}
	for i := range xi {
		if xi[i] != yi[i] {
			return false
		}
	}
	return true
}

// CopySynopsisInto implements aggregate.SynopsisMemoizer.
func (a *Agg) CopySynopsisInto(dst, src *Synopsis) *Synopsis {
	dst.Smp.CopyFrom(src.Smp)
	dst.Cnt.CopyFrom(src.Cnt)
	return dst
}

// AppendSynopsis implements aggregate.Aggregate.
func (a *Agg) AppendSynopsis(dst []byte, s *Synopsis) []byte {
	dst = s.Smp.AppendWire(dst)
	return s.Cnt.AppendWire(dst)
}

// DecodeSynopsis implements aggregate.Aggregate.
func (a *Agg) DecodeSynopsis(data []byte) (*Synopsis, error) {
	r := wire.NewReader(data)
	smp, err := sample.ReadWire(r, a.Seed, a.ranks, a.K)
	if err != nil {
		return nil, err
	}
	cnt := sketch.ReadWire(r, a.CountK)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &Synopsis{Smp: smp, Cnt: cnt}, nil
}

// EvalBase implements aggregate.Aggregate: directly received tree summaries
// merge exactly; the delta's fused sample becomes a summary scaled to the
// sketch-estimated delta population; the two merge into the answer.
func (a *Agg) EvalBase(treeParts []*Partial, syns []*Synopsis) *Summary {
	var root *Summary
	for _, p := range treeParts {
		if root == nil {
			root = p.Sum.Clone()
		} else {
			root = Merge(root, p.Sum)
		}
	}
	if len(syns) > 0 {
		// Samples must fold pairwise (bottom-k truncation), but the
		// population sketches compose under plain OR: gather them and run one
		// fused word-major union instead of a per-synopsis Union loop.
		if a.scratchSmp == nil {
			a.scratchSmp = sample.New(a.K)
			a.scratchCnt = sketch.New(a.CountK)
		}
		smp, cnt := a.scratchSmp, a.scratchCnt
		smp.CopyFrom(syns[0].Smp)
		a.scratchCnts = a.scratchCnts[:0]
		for _, s := range syns {
			a.scratchCnts = append(a.scratchCnts, s.Cnt)
		}
		for _, s := range syns[1:] {
			smp.Merge(s.Smp)
		}
		sketch.UnionAllInto(cnt, a.scratchCnts...)
		if ds := SampleSummary(smp, int64(math.Round(cnt.Estimate()))); ds.N > 0 {
			if root == nil {
				root = ds
			} else {
				root = Merge(root, ds)
			}
		}
	}
	if root == nil {
		return &Summary{}
	}
	return root
}

// Exact implements aggregate.Aggregate.
func (a *Agg) Exact(vs []float64) *Summary { return FromUnsorted(vs) }

// SampleSummary builds a rank summary from a bottom-k sample of a population
// of approximately n readings. When the sample is not full it holds every
// reading it ever saw, so the summary is exact over them; otherwise each
// sorted sample value is placed at its scaled order-statistic rank, and Eps
// records the sampling noise (the ~1/(2√k) standard deviation of a bottom-k
// rank estimate — a noise scale, not a hard bound like a prune's).
func SampleSummary(s *sample.Sample, n int64) *Summary {
	m := s.Len()
	if m == 0 || n <= 0 {
		return &Summary{}
	}
	vals := s.Values()
	sort.Float64s(vals)
	if m < s.K() {
		// Partial sample: it saw the whole population, exactly.
		return FromSorted(vals)
	}
	if n < int64(m) {
		n = int64(m)
	}
	out := &Summary{N: n, Eps: 1 / (2 * math.Sqrt(float64(m)))}
	out.Entries = make([]Entry, m)
	prev := int64(0)
	for i, v := range vals {
		r := int64(math.Round(float64(i+1) / float64(m) * float64(n)))
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		if r < prev {
			r = prev
		}
		out.Entries[i] = Entry{V: v, RMin: r, RMax: r}
		prev = r
	}
	return out
}
