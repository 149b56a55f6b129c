package aggregate

import (
	"math"

	"tributarydelta/internal/sketch"
	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// decodeFloatPartial parses the one-float encoding shared by Sum, Min and
// Max.
func decodeFloatPartial(data []byte) (float64, error) {
	r := wire.NewReader(data)
	v := r.Float64()
	return v, r.Finish()
}

// DefaultSketchK is the paper's multi-path Count/Sum configuration: 40
// 32-bit FM bitmaps, RLE-packed into one 48-byte TinyDB message, giving the
// ~12% approximation error visible in Figure 2.
const DefaultSketchK = 40

// DefaultReseedEvery is the default synopsis hash reseeding period of the
// sketch-backed aggregates, matching the §4.2 default adaptation period: the
// hash is fixed within a period (so base synopses are pure functions of
// (seed, owner, reading) and memoizable across its epochs) and re-drawn
// between periods (so long-run averages — the adaptation mean, an
// experiment's RMS error — still see independent FM realizations).
const DefaultReseedEvery = 10

// Sum aggregates non-negative numeric readings: exact float64 partial sums
// in the tree, FM count sketches in the delta. Readings are scaled by Scale
// and rounded before sketch insertion, so the multi-path side carries
// integers (the FM domain); the tree side stays exact.
type Sum struct {
	// Seed namespaces the sketch hash space; combine with the run seed.
	Seed uint64
	// K is the number of FM bitmaps per synopsis.
	K int
	// Scale converts readings to sketch units (units of 1/Scale).
	Scale float64
	// ReseedEvery is the hash reseeding period in epochs: within a period
	// the sketch hash is fixed — Considine-style, installed with the query —
	// making conversions memoizable; between periods it is re-drawn so
	// epoch averages de-correlate. 0 never reseeds (one hash for the whole
	// run).
	ReseedEvery int

	// scratch is the EvalBase union accumulator, reused epoch to epoch.
	scratch *sketch.Sketch
}

// NewSum returns a Sum aggregate with the paper's defaults.
func NewSum(seed uint64) *Sum {
	return &Sum{Seed: seed, K: DefaultSketchK, Scale: 1, ReseedEvery: DefaultReseedEvery}
}

// seedEpochKey maps an epoch to its hash-reseeding period.
func seedEpochKey(epoch, reseedEvery int) uint64 {
	if reseedEvery <= 0 {
		return 0
	}
	return uint64(epoch / reseedEvery)
}

// Name implements Aggregate.
func (a *Sum) Name() string { return "Sum" }

// Local implements Aggregate.
func (a *Sum) Local(_, _ int, v float64) float64 { return v }

// MergeTree implements Aggregate.
func (a *Sum) MergeTree(acc, in float64) float64 { return acc + in }

// FinalizeTree implements Aggregate (no-op).
func (a *Sum) FinalizeTree(_, _ int, p float64) float64 { return p }

// AppendPartial implements Aggregate: the exact float64 subtree sum,
// varint-compressed (integer-valued readings fit one word).
func (a *Sum) AppendPartial(dst []byte, p float64) []byte {
	return wire.AppendFloat64(dst, p)
}

// DecodePartial implements Aggregate.
func (a *Sum) DecodePartial(data []byte) (float64, error) {
	return decodeFloatPartial(data)
}

// Convert implements Aggregate: a subtree sum p becomes round(p·Scale)
// distinct sketch insertions owned by the converting sender, which is
// exactly the synopsis the multi-path scheme equates with p.
//
// The sketch hash is fixed within a reseeding period (see ReseedEvery), not
// re-randomized per epoch — as in Considine et al., where every node applies
// the same hash function h installed with the query. Within a period the
// synopsis is a pure function of (seed, owner, p), which is what lets the
// epoch engine memoize base synopses across epochs while a reading holds
// still.
func (a *Sum) Convert(epoch, owner int, p float64) *sketch.Sketch {
	return a.ConvertInto(epoch, owner, p, sketch.New(a.K))
}

// Fuse implements Aggregate.
func (a *Sum) Fuse(acc, in *sketch.Sketch) *sketch.Sketch {
	acc.Union(in)
	return acc
}

// FuseAll implements SynopsisBatchFuser: one word-major pass over all
// sources instead of one Fuse dispatch per synopsis.
func (a *Sum) FuseAll(acc *sketch.Sketch, in []*sketch.Sketch) *sketch.Sketch {
	sketch.UnionAllInto(acc, in...)
	return acc
}

// NewSynopsis implements SynopsisRecycler.
func (a *Sum) NewSynopsis() *sketch.Sketch { return sketch.New(a.K) }

// ConvertInto implements SynopsisRecycler: Convert into a recycled sketch.
func (a *Sum) ConvertInto(epoch, owner int, p float64, dst *sketch.Sketch) *sketch.Sketch {
	dst.Reset()
	units := int64(math.Round(p * a.Scale))
	dst.AddCount(a.sketchSeed(epoch), uint64(owner), units)
	return dst
}

// sketchSeed is the hash seed of the Sum synopsis domain for the epoch's
// reseeding period.
func (a *Sum) sketchSeed(epoch int) uint64 {
	return xrand.Hash(a.Seed, 0xF14, seedEpochKey(epoch, a.ReseedEvery))
}

// SynopsisEpochKey implements SynopsisMemoizer: conversions are stable
// while the reseeding period is.
func (a *Sum) SynopsisEpochKey(epoch int) uint64 { return seedEpochKey(epoch, a.ReseedEvery) }

// PartialEqual implements SynopsisMemoizer.
func (a *Sum) PartialEqual(x, y float64) bool { return x == y }

// CopySynopsisInto implements SynopsisMemoizer.
func (a *Sum) CopySynopsisInto(dst, src *sketch.Sketch) *sketch.Sketch {
	dst.CopyFrom(src)
	return dst
}

// DecodeSynopsisInto implements SynopsisRecycler.
func (a *Sum) DecodeSynopsisInto(data []byte, dst *sketch.Sketch) (*sketch.Sketch, error) {
	if err := dst.LoadWire(data); err != nil {
		return nil, err
	}
	return dst, nil
}

// AppendSynopsis implements Aggregate: the K-bitmap FM sketch in its
// byte-trimmed wire form, at most 1+4K bytes.
func (a *Sum) AppendSynopsis(dst []byte, s *sketch.Sketch) []byte {
	return s.AppendWire(dst)
}

// MaxSynopsisBytes implements SynopsisSizer.
func (a *Sum) MaxSynopsisBytes() int { return sketch.WireBytes(a.K) }

// DecodeSynopsis implements Aggregate.
func (a *Sum) DecodeSynopsis(data []byte) (*sketch.Sketch, error) {
	return sketch.DecodeWire(data, a.K)
}

// EvalBase implements Aggregate.
func (a *Sum) EvalBase(treeParts []float64, syns []*sketch.Sketch) float64 {
	total := 0.0
	for _, p := range treeParts {
		total += p
	}
	if len(syns) > 0 {
		if a.scratch == nil {
			a.scratch = sketch.New(a.K)
		}
		sketch.UnionAllInto(a.scratch, syns...)
		total += a.scratch.Estimate() / a.Scale
	}
	return total
}

// Exact implements Aggregate.
func (a *Sum) Exact(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// Count counts contributing sensor nodes: the paper's running example
// (Figures 2 and 5). It is Sum over the constant reading 1, with integer
// tree partials — each node inserts itself once into the bit-vector
// synopsis, as in Figure 3.
type Count struct {
	Seed uint64
	K    int
	// ReseedEvery is the hash reseeding period in epochs; see Sum.
	ReseedEvery int

	// scratch is the EvalBase union accumulator, reused epoch to epoch.
	scratch *sketch.Sketch
}

// NewCount returns a Count aggregate with the paper's defaults.
func NewCount(seed uint64) *Count {
	return &Count{Seed: seed, K: DefaultSketchK, ReseedEvery: DefaultReseedEvery}
}

// Name implements Aggregate.
func (a *Count) Name() string { return "Count" }

// Local implements Aggregate.
func (a *Count) Local(_, _ int, _ struct{}) int64 { return 1 }

// MergeTree implements Aggregate.
func (a *Count) MergeTree(acc, in int64) int64 { return acc + in }

// FinalizeTree implements Aggregate (no-op).
func (a *Count) FinalizeTree(_, _ int, p int64) int64 { return p }

// AppendPartial implements Aggregate: the exact subtree count as a varint —
// one 32-bit word for any realistic deployment (counts below 2^27).
func (a *Count) AppendPartial(dst []byte, p int64) []byte {
	return wire.AppendVarint(dst, p)
}

// DecodePartial implements Aggregate.
func (a *Count) DecodePartial(data []byte) (int64, error) {
	r := wire.NewReader(data)
	p := r.Varint()
	return p, r.Finish()
}

// Convert implements Aggregate. Like Sum's, the sketch hash is fixed within
// a reseeding period — the synopsis is a pure function of (seed, owner, p) —
// so converted partials are memoizable across the period's epochs.
func (a *Count) Convert(epoch, owner int, p int64) *sketch.Sketch {
	return a.ConvertInto(epoch, owner, p, sketch.New(a.K))
}

// Fuse implements Aggregate.
func (a *Count) Fuse(acc, in *sketch.Sketch) *sketch.Sketch {
	acc.Union(in)
	return acc
}

// FuseAll implements SynopsisBatchFuser: one word-major pass over all
// sources instead of one Fuse dispatch per synopsis.
func (a *Count) FuseAll(acc *sketch.Sketch, in []*sketch.Sketch) *sketch.Sketch {
	sketch.UnionAllInto(acc, in...)
	return acc
}

// NewSynopsis implements SynopsisRecycler.
func (a *Count) NewSynopsis() *sketch.Sketch { return sketch.New(a.K) }

// ConvertInto implements SynopsisRecycler: Convert into a recycled sketch.
func (a *Count) ConvertInto(epoch, owner int, p int64, dst *sketch.Sketch) *sketch.Sketch {
	dst.Reset()
	dst.AddCount(a.sketchSeed(epoch), uint64(owner), p)
	return dst
}

// sketchSeed is the hash seed of the Count synopsis domain for the epoch's
// reseeding period.
func (a *Count) sketchSeed(epoch int) uint64 {
	return xrand.Hash(a.Seed, 0xF14, seedEpochKey(epoch, a.ReseedEvery))
}

// SynopsisEpochKey implements SynopsisMemoizer.
func (a *Count) SynopsisEpochKey(epoch int) uint64 { return seedEpochKey(epoch, a.ReseedEvery) }

// PartialEqual implements SynopsisMemoizer.
func (a *Count) PartialEqual(x, y int64) bool { return x == y }

// CopySynopsisInto implements SynopsisMemoizer.
func (a *Count) CopySynopsisInto(dst, src *sketch.Sketch) *sketch.Sketch {
	dst.CopyFrom(src)
	return dst
}

// DecodeSynopsisInto implements SynopsisRecycler.
func (a *Count) DecodeSynopsisInto(data []byte, dst *sketch.Sketch) (*sketch.Sketch, error) {
	if err := dst.LoadWire(data); err != nil {
		return nil, err
	}
	return dst, nil
}

// AppendSynopsis implements Aggregate: the K-bitmap FM bit vector of
// Figure 3 in its byte-trimmed wire form, at most 1+4K bytes.
func (a *Count) AppendSynopsis(dst []byte, s *sketch.Sketch) []byte {
	return s.AppendWire(dst)
}

// MaxSynopsisBytes implements SynopsisSizer.
func (a *Count) MaxSynopsisBytes() int { return sketch.WireBytes(a.K) }

// DecodeSynopsis implements Aggregate.
func (a *Count) DecodeSynopsis(data []byte) (*sketch.Sketch, error) {
	return sketch.DecodeWire(data, a.K)
}

// EvalBase implements Aggregate.
func (a *Count) EvalBase(treeParts []int64, syns []*sketch.Sketch) float64 {
	var exact int64
	for _, p := range treeParts {
		exact += p
	}
	total := float64(exact)
	if len(syns) > 0 {
		if a.scratch == nil {
			a.scratch = sketch.New(a.K)
		}
		sketch.UnionAllInto(a.scratch, syns...)
		total += a.scratch.Estimate()
	}
	return total
}

// Exact implements Aggregate.
func (a *Count) Exact(vs []struct{}) float64 { return float64(len(vs)) }

// Min tracks the minimum reading. Min is idempotent, so the very same
// float64 serves as tree partial and as duplicate-insensitive synopsis; the
// conversion function is the identity and multi-path introduces no
// approximation error (§5).
type Min struct{}

// Name implements Aggregate.
func (Min) Name() string { return "Min" }

// Local implements Aggregate.
func (Min) Local(_, _ int, v float64) float64 { return v }

// MergeTree implements Aggregate.
func (Min) MergeTree(acc, in float64) float64 { return math.Min(acc, in) }

// FinalizeTree implements Aggregate (no-op).
func (Min) FinalizeTree(_, _ int, p float64) float64 { return p }

// AppendPartial implements Aggregate.
func (Min) AppendPartial(dst []byte, p float64) []byte { return wire.AppendFloat64(dst, p) }

// DecodePartial implements Aggregate.
func (Min) DecodePartial(data []byte) (float64, error) { return decodeFloatPartial(data) }

// Convert implements Aggregate.
func (Min) Convert(_, _ int, p float64) float64 { return p }

// Fuse implements Aggregate.
func (Min) Fuse(acc, in float64) float64 { return math.Min(acc, in) }

// AppendSynopsis implements Aggregate: Min's synopsis is the same scalar as
// its partial (identity conversion).
func (Min) AppendSynopsis(dst []byte, s float64) []byte { return wire.AppendFloat64(dst, s) }

// DecodeSynopsis implements Aggregate.
func (Min) DecodeSynopsis(data []byte) (float64, error) { return decodeFloatPartial(data) }

// EvalBase implements Aggregate.
func (Min) EvalBase(treeParts []float64, syns []float64) float64 {
	m := math.Inf(1)
	for _, p := range treeParts {
		m = math.Min(m, p)
	}
	for _, s := range syns {
		m = math.Min(m, s)
	}
	return m
}

// Exact implements Aggregate.
func (Min) Exact(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		m = math.Min(m, v)
	}
	return m
}

// Max tracks the maximum reading; see Min.
type Max struct{}

// Name implements Aggregate.
func (Max) Name() string { return "Max" }

// Local implements Aggregate.
func (Max) Local(_, _ int, v float64) float64 { return v }

// MergeTree implements Aggregate.
func (Max) MergeTree(acc, in float64) float64 { return math.Max(acc, in) }

// FinalizeTree implements Aggregate (no-op).
func (Max) FinalizeTree(_, _ int, p float64) float64 { return p }

// AppendPartial implements Aggregate.
func (Max) AppendPartial(dst []byte, p float64) []byte { return wire.AppendFloat64(dst, p) }

// DecodePartial implements Aggregate.
func (Max) DecodePartial(data []byte) (float64, error) { return decodeFloatPartial(data) }

// Convert implements Aggregate.
func (Max) Convert(_, _ int, p float64) float64 { return p }

// Fuse implements Aggregate.
func (Max) Fuse(acc, in float64) float64 { return math.Max(acc, in) }

// AppendSynopsis implements Aggregate.
func (Max) AppendSynopsis(dst []byte, s float64) []byte { return wire.AppendFloat64(dst, s) }

// DecodeSynopsis implements Aggregate.
func (Max) DecodeSynopsis(data []byte) (float64, error) { return decodeFloatPartial(data) }

// EvalBase implements Aggregate.
func (Max) EvalBase(treeParts []float64, syns []float64) float64 {
	m := math.Inf(-1)
	for _, p := range treeParts {
		m = math.Max(m, p)
	}
	for _, s := range syns {
		m = math.Max(m, s)
	}
	return m
}

// Exact implements Aggregate.
func (Max) Exact(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// AvgPartial is the tree partial of Average: an exact (sum, count) pair.
type AvgPartial struct {
	Sum   float64
	Count int64
}

// AvgSynopsis is the multi-path synopsis of Average: a Sum sketch and a
// Count sketch fused independently.
type AvgSynopsis struct {
	Sum   *sketch.Sketch
	Count *sketch.Sketch
}

// Average computes the mean reading as Sum/Count, both carried in one
// message (§5 lists Average among the aggregates with simple conversions).
type Average struct {
	Seed  uint64
	K     int
	Scale float64
	// ReseedEvery is the hash reseeding period in epochs; see Sum.
	ReseedEvery int

	// scratchSum/scratchCount are the EvalBase union accumulators, reused
	// epoch to epoch.
	scratchSum, scratchCount *sketch.Sketch
}

// NewAverage returns an Average aggregate with the paper's defaults. The
// two sketches halve the bitmap budget each so the synopsis still fits one
// TinyDB packet.
func NewAverage(seed uint64) *Average {
	return &Average{Seed: seed, K: DefaultSketchK / 2, Scale: 1, ReseedEvery: DefaultReseedEvery}
}

// Name implements Aggregate.
func (a *Average) Name() string { return "Average" }

// Local implements Aggregate.
func (a *Average) Local(_, _ int, v float64) AvgPartial {
	return AvgPartial{Sum: v, Count: 1}
}

// MergeTree implements Aggregate.
func (a *Average) MergeTree(acc, in AvgPartial) AvgPartial {
	return AvgPartial{Sum: acc.Sum + in.Sum, Count: acc.Count + in.Count}
}

// FinalizeTree implements Aggregate (no-op).
func (a *Average) FinalizeTree(_, _ int, p AvgPartial) AvgPartial { return p }

// AppendPartial implements Aggregate: the exact (sum, count) pair.
func (a *Average) AppendPartial(dst []byte, p AvgPartial) []byte {
	dst = wire.AppendFloat64(dst, p.Sum)
	return wire.AppendVarint(dst, p.Count)
}

// DecodePartial implements Aggregate.
func (a *Average) DecodePartial(data []byte) (AvgPartial, error) {
	r := wire.NewReader(data)
	p := AvgPartial{Sum: r.Float64(), Count: r.Varint()}
	return p, r.Finish()
}

// Convert implements Aggregate. Both sketch hashes are fixed within a
// reseeding period (see Sum.Convert), so the synopsis is a pure function of
// (seed, owner, p).
func (a *Average) Convert(epoch, owner int, p AvgPartial) AvgSynopsis {
	return a.ConvertInto(epoch, owner, p, a.NewSynopsis())
}

// Fuse implements Aggregate.
func (a *Average) Fuse(acc, in AvgSynopsis) AvgSynopsis {
	acc.Sum.Union(in.Sum)
	acc.Count.Union(in.Count)
	return acc
}

// FuseAll implements SynopsisBatchFuser. The pair layout rules out a single
// gathered UnionAllInto pass (that would need aggregate-owned scratch, which
// the concurrency contract forbids), but the batch still collapses the
// per-synopsis Fuse dispatches into one call with UnionInto's overwrite
// semantics per half.
func (a *Average) FuseAll(acc AvgSynopsis, in []AvgSynopsis) AvgSynopsis {
	keep := false
	for _, s := range in {
		if s.Sum == acc.Sum {
			keep = true
		}
	}
	if !keep {
		acc.Sum.Reset()
		acc.Count.Reset()
	}
	for _, s := range in {
		if s.Sum == acc.Sum {
			continue
		}
		acc.Sum.Union(s.Sum)
		acc.Count.Union(s.Count)
	}
	return acc
}

// NewSynopsis implements SynopsisRecycler.
func (a *Average) NewSynopsis() AvgSynopsis {
	return AvgSynopsis{Sum: sketch.New(a.K), Count: sketch.New(a.K)}
}

// ConvertInto implements SynopsisRecycler: Convert into a recycled synopsis.
func (a *Average) ConvertInto(epoch, owner int, p AvgPartial, dst AvgSynopsis) AvgSynopsis {
	dst.Sum.Reset()
	dst.Count.Reset()
	seed := a.sketchSeed(epoch)
	dst.Sum.AddCount(seed, uint64(owner), int64(math.Round(p.Sum*a.Scale)))
	dst.Count.AddCount(xrand.Combine(seed, 0xC07), uint64(owner), p.Count)
	return dst
}

// sketchSeed is the hash seed of the Average synopsis domain for the epoch's
// reseeding period.
func (a *Average) sketchSeed(epoch int) uint64 {
	return xrand.Hash(a.Seed, 0xF14, seedEpochKey(epoch, a.ReseedEvery))
}

// SynopsisEpochKey implements SynopsisMemoizer.
func (a *Average) SynopsisEpochKey(epoch int) uint64 { return seedEpochKey(epoch, a.ReseedEvery) }

// PartialEqual implements SynopsisMemoizer.
func (a *Average) PartialEqual(x, y AvgPartial) bool { return x == y }

// CopySynopsisInto implements SynopsisMemoizer.
func (a *Average) CopySynopsisInto(dst, src AvgSynopsis) AvgSynopsis {
	dst.Sum.CopyFrom(src.Sum)
	dst.Count.CopyFrom(src.Count)
	return dst
}

// DecodeSynopsisInto implements SynopsisRecycler.
func (a *Average) DecodeSynopsisInto(data []byte, dst AvgSynopsis) (AvgSynopsis, error) {
	r := wire.NewReader(data)
	sketch.ReadWireInto(r, dst.Sum)
	sketch.ReadWireInto(r, dst.Count)
	if err := r.Finish(); err != nil {
		return AvgSynopsis{}, err
	}
	return dst, nil
}

// AppendSynopsis implements Aggregate: the Sum and Count sketches
// back-to-back, each self-delimiting.
func (a *Average) AppendSynopsis(dst []byte, s AvgSynopsis) []byte {
	dst = s.Sum.AppendWire(dst)
	return s.Count.AppendWire(dst)
}

// MaxSynopsisBytes implements SynopsisSizer.
func (a *Average) MaxSynopsisBytes() int { return 2 * sketch.WireBytes(a.K) }

// DecodeSynopsis implements Aggregate.
func (a *Average) DecodeSynopsis(data []byte) (AvgSynopsis, error) {
	r := wire.NewReader(data)
	s := AvgSynopsis{Sum: sketch.ReadWire(r, a.K), Count: sketch.ReadWire(r, a.K)}
	return s, r.Finish()
}

// EvalBase implements Aggregate.
func (a *Average) EvalBase(treeParts []AvgPartial, syns []AvgSynopsis) float64 {
	var sum float64
	var count float64
	for _, p := range treeParts {
		sum += p.Sum
		count += float64(p.Count)
	}
	if len(syns) > 0 {
		if a.scratchSum == nil {
			a.scratchSum = sketch.New(a.K)
			a.scratchCount = sketch.New(a.K)
		}
		a.scratchSum.CopyFrom(syns[0].Sum)
		a.scratchCount.CopyFrom(syns[0].Count)
		for _, s := range syns[1:] {
			a.scratchSum.Union(s.Sum)
			a.scratchCount.Union(s.Count)
		}
		sum += a.scratchSum.Estimate() / a.Scale
		count += a.scratchCount.Estimate()
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

// Exact implements Aggregate.
func (a *Average) Exact(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}
