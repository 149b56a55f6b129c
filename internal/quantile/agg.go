package quantile

import (
	"math"
	"slices"
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
	// spare is the output summary of MergeTree and FinalizeTree's prune,
	// swapped with Sum after each, so a recycled partial folds its children
	// without allocating.
	spare *Summary
}

// Synopsis is the delta-side synopsis: the fused bottom-k sample and an FM
// count sketch estimating the number of readings the delta covers (the
// population size the sample's order statistics are scaled by).
type Synopsis struct {
	// Smp is the duplicate-insensitive bottom-k sample.
	Smp *sample.Sample
	// Cnt estimates the number of readings represented in Smp's population.
	Cnt *sketch.Sketch
	// cnts gathers FuseAll's population sketches, kept with the accumulator
	// so concurrent fusions into distinct synopses share nothing.
	cnts []*sketch.Sketch
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

	// base is EvalBase's scratch, reused epoch to epoch (EvalBase runs on
	// the dispatch goroutine only).
	base evalScratch
}

// evalScratch holds EvalBase's intermediate products: the delta's fused
// synopsis, its sorted sample values and summary, and two summaries the
// running merge ping-pongs between. Only the answer handed to the caller is
// fresh.
type evalScratch struct {
	syn             *Synopsis
	vals            []float64
	cur, alt, delta *Summary
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
	return a.LocalInto(epoch, node, v, a.NewPartial())
}

// NewPartial implements aggregate.PartialRecycler.
func (a *Agg) NewPartial() *Partial {
	return &Partial{Sum: &Summary{}, Smp: sample.New(a.K)}
}

// LocalInto implements aggregate.PartialRecycler: the exact one-reading
// summary FromSorted([]float64{v}) and the reading's sample item, whose rank
// comes from the reseeding window's rank table.
func (a *Agg) LocalInto(epoch, node int, v float64, dst *Partial) *Partial {
	dst.Sum.Entries = append(dst.Sum.Entries[:0], Entry{V: v, RMin: 1, RMax: 1})
	dst.Sum.N, dst.Sum.Eps = 1, 0
	dst.Smp.Reset()
	dst.Smp.AddMemo(a.Seed, a.ranks, a.rankEpoch(epoch), node, v)
	return dst
}

// CopyPartialInto implements aggregate.PartialRecycler.
func (a *Agg) CopyPartialInto(dst, src *Partial) *Partial {
	dst.Sum.CopyFrom(src.Sum)
	dst.Smp.CopyFrom(src.Smp)
	return dst
}

// MergeTree implements aggregate.Aggregate: summaries merge by the
// mergeable-summaries construction, samples by bottom-k union.
func (a *Agg) MergeTree(acc, in *Partial) *Partial {
	if acc.spare == nil {
		acc.spare = &Summary{}
	}
	reserve(acc.spare, len(acc.Sum.Entries)+len(in.Sum.Entries), acc.Sum)
	acc.Sum, acc.spare = MergeInto(acc.spare, acc.Sum, in.Sum), acc.Sum
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
		if p.spare == nil {
			p.spare = &Summary{}
		}
		p.spare.Entries = p.Sum.PruneInto(int(math.Ceil(1/delta)), p.spare.Entries)
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
	return a.DecodePartialInto(data, a.NewPartial())
}

// DecodePartialInto implements aggregate.PartialRecycler.
func (a *Agg) DecodePartialInto(data []byte, dst *Partial) (*Partial, error) {
	r := wire.NewReader(data)
	if err := ReadWireInto(r, dst.Sum); err != nil {
		return nil, err
	}
	if err := sample.ReadWireInto(r, a.Seed, a.ranks, dst.Smp); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return dst, nil
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

// FuseAll implements aggregate.SynopsisBatchFuser: the samples fold in input
// order, as Fuse would, and the population sketches in one fused union. acc
// may appear among in only as in[0].
func (a *Agg) FuseAll(acc *Synopsis, in []*Synopsis) *Synopsis {
	acc.cnts = acc.cnts[:0]
	for _, s := range in {
		acc.cnts = append(acc.cnts, s.Cnt)
	}
	switch {
	case len(in) == 0:
		acc.Smp.Reset()
	case in[0] != acc:
		acc.Smp.CopyFrom(in[0].Smp)
	}
	for _, s := range in[min(1, len(in)):] {
		acc.Smp.Merge(s.Smp)
	}
	sketch.UnionAllInto(acc.Cnt, acc.cnts...)
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
// sketch-estimated delta population; the two merge into the answer. Every
// intermediate lives in the aggregate's scratch; the answer is a fresh copy.
func (a *Agg) EvalBase(treeParts []*Partial, syns []*Synopsis) *Summary {
	sc := &a.base
	if sc.cur == nil {
		sc.syn = a.NewSynopsis()
		sc.cur, sc.alt, sc.delta = &Summary{}, &Summary{}, &Summary{}
	}
	have := false
	fold := func(s *Summary) {
		if !have {
			sc.cur.CopyFrom(s)
			have = true
			return
		}
		reserve(sc.alt, len(sc.cur.Entries)+len(s.Entries), sc.cur)
		sc.cur, sc.alt = MergeInto(sc.alt, sc.cur, s), sc.cur
	}
	for _, p := range treeParts {
		fold(p.Sum)
	}
	if len(syns) > 0 {
		d := a.FuseAll(sc.syn, syns)
		var ds *Summary
		ds, sc.vals = sampleSummaryInto(sc.delta, d.Smp, int64(math.Round(d.Cnt.Estimate())), sc.vals)
		if ds.N > 0 {
			fold(ds)
		}
	}
	if !have {
		return &Summary{}
	}
	return sc.cur.Clone()
}

// Exact implements aggregate.Aggregate.
func (a *Agg) Exact(vs []float64) *Summary { return FromUnsorted(vs) }

// reserve makes room in dst, the spare of a ping-pong pair whose other half
// is peer, for need entries — and, when it must grow, for as many as peer
// holds room for, so the pair's two arrays grow to one high-water mark
// whichever half a merge happens to land in.
func reserve(dst *Summary, need int, peer *Summary) {
	if cap(dst.Entries) < need {
		dst.Entries = make([]Entry, 0, max(need, cap(peer.Entries)))
	}
}

// SampleSummary builds a rank summary from a bottom-k sample of a population
// of approximately n readings. When the sample is not full it holds every
// reading it ever saw, so the summary is exact over them; otherwise each
// sorted sample value is placed at its scaled order-statistic rank, and Eps
// records the sampling noise (the ~1/(2√k) standard deviation of a bottom-k
// rank estimate — a noise scale, not a hard bound like a prune's).
func SampleSummary(s *sample.Sample, n int64) *Summary {
	out, _ := sampleSummaryInto(&Summary{}, s, n, nil)
	return out
}

// sampleSummaryInto is SampleSummary writing into dst, with vals as the
// sort buffer; it returns dst and the buffer for reuse.
func sampleSummaryInto(dst *Summary, s *sample.Sample, n int64, vals []float64) (*Summary, []float64) {
	m := s.Len()
	if m == 0 || n <= 0 {
		dst.Entries, dst.N, dst.Eps = dst.Entries[:0], 0, 0
		return dst, vals
	}
	vals = vals[:0]
	for _, it := range s.Items() {
		vals = append(vals, it.Value)
	}
	sort.Float64s(vals)
	out := slices.Grow(dst.Entries[:0], m)
	if m < s.K() {
		// Partial sample: it saw the whole population, exactly.
		for i, v := range vals {
			out = append(out, Entry{V: v, RMin: int64(i + 1), RMax: int64(i + 1)})
		}
		dst.Entries, dst.N, dst.Eps = out, int64(m), 0
		return dst, vals
	}
	if n < int64(m) {
		n = int64(m)
	}
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
		out = append(out, Entry{V: v, RMin: r, RMax: r})
		prev = r
	}
	dst.Entries, dst.N, dst.Eps = out, n, 1/(2*math.Sqrt(float64(m)))
	return dst, vals
}
