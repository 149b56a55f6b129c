package aggregate

import (
	"math"

	"tributarydelta/internal/sketch"
	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// MomentsPartial is the exact tree partial of Moments: the count and the
// first three power sums of the readings.
type MomentsPartial struct {
	N          int64
	S1, S2, S3 float64
}

// MomentsSynopsis carries one duplicate-insensitive sketch per power sum.
type MomentsSynopsis struct {
	N, S1, S2, S3 *sketch.Sketch
}

// MomentsValue is the evaluated answer.
type MomentsValue struct {
	Count    float64
	Mean     float64
	Variance float64
	Skewness float64
}

// Moments computes mean, variance and skewness of the readings — §5 notes
// statistical moments among the aggregates the framework supports (via
// power sums, which are just Sums and hence duplicate-insensitive). The
// tree side is exact; the multi-path side carries four sketches that share
// the message budget.
type Moments struct {
	Seed uint64
	// K is the number of FM bitmaps per power-sum sketch (four sketches
	// per synopsis).
	K int
	// Scale converts power sums to sketch units.
	Scale float64
	// MaxValue bounds |reading|; readings are clamped so cubes stay within
	// the sketch's integer domain.
	MaxValue float64
}

// NewMoments returns a Moments aggregate: four 10-bitmap sketches keep the
// synopsis within four words of the Count/Sum configuration.
func NewMoments(seed uint64) *Moments {
	return &Moments{Seed: seed, K: 10, Scale: 1, MaxValue: 1e4}
}

// Name implements Aggregate.
func (a *Moments) Name() string { return "Moments" }

// clamp bounds a reading to the configured domain.
func (a *Moments) clamp(v float64) float64 {
	if v < 0 {
		return 0 // power-sum sketches need non-negative readings
	}
	if v > a.MaxValue {
		return a.MaxValue
	}
	return v
}

// Local implements Aggregate.
func (a *Moments) Local(_, _ int, v float64) MomentsPartial {
	v = a.clamp(v)
	return MomentsPartial{N: 1, S1: v, S2: v * v, S3: v * v * v}
}

// MergeTree implements Aggregate.
func (a *Moments) MergeTree(acc, in MomentsPartial) MomentsPartial {
	return MomentsPartial{
		N:  acc.N + in.N,
		S1: acc.S1 + in.S1,
		S2: acc.S2 + in.S2,
		S3: acc.S3 + in.S3,
	}
}

// FinalizeTree implements Aggregate (no-op).
func (a *Moments) FinalizeTree(_, _ int, p MomentsPartial) MomentsPartial { return p }

// AppendPartial implements Aggregate: the count and three exact power sums.
func (a *Moments) AppendPartial(dst []byte, p MomentsPartial) []byte {
	dst = wire.AppendVarint(dst, p.N)
	dst = wire.AppendFloat64(dst, p.S1)
	dst = wire.AppendFloat64(dst, p.S2)
	return wire.AppendFloat64(dst, p.S3)
}

// DecodePartial implements Aggregate.
func (a *Moments) DecodePartial(data []byte) (MomentsPartial, error) {
	r := wire.NewReader(data)
	p := MomentsPartial{N: r.Varint(), S1: r.Float64(), S2: r.Float64(), S3: r.Float64()}
	return p, r.Finish()
}

// Convert implements Aggregate: each power sum becomes a count credit owned
// by the converting sender.
func (a *Moments) Convert(epoch, owner int, p MomentsPartial) MomentsSynopsis {
	seed := xrand.Hash(a.Seed, uint64(epoch))
	syn := MomentsSynopsis{
		N:  sketch.New(a.K),
		S1: sketch.New(a.K),
		S2: sketch.New(a.K),
		S3: sketch.New(a.K),
	}
	syn.N.AddCount(xrand.Combine(seed, 0), uint64(owner), p.N)
	syn.S1.AddCount(xrand.Combine(seed, 1), uint64(owner), int64(math.Round(p.S1*a.Scale)))
	syn.S2.AddCount(xrand.Combine(seed, 2), uint64(owner), int64(math.Round(p.S2*a.Scale)))
	syn.S3.AddCount(xrand.Combine(seed, 3), uint64(owner), int64(math.Round(p.S3*a.Scale)))
	return syn
}

// Fuse implements Aggregate.
func (a *Moments) Fuse(acc, in MomentsSynopsis) MomentsSynopsis {
	acc.N.Union(in.N)
	acc.S1.Union(in.S1)
	acc.S2.Union(in.S2)
	acc.S3.Union(in.S3)
	return acc
}

// AppendSynopsis implements Aggregate: the four power-sum sketches
// back-to-back, each self-delimiting.
func (a *Moments) AppendSynopsis(dst []byte, s MomentsSynopsis) []byte {
	dst = s.N.AppendWire(dst)
	dst = s.S1.AppendWire(dst)
	dst = s.S2.AppendWire(dst)
	return s.S3.AppendWire(dst)
}

// DecodeSynopsis implements Aggregate.
func (a *Moments) DecodeSynopsis(data []byte) (MomentsSynopsis, error) {
	r := wire.NewReader(data)
	s := MomentsSynopsis{
		N:  sketch.ReadWire(r, a.K),
		S1: sketch.ReadWire(r, a.K),
		S2: sketch.ReadWire(r, a.K),
		S3: sketch.ReadWire(r, a.K),
	}
	return s, r.Finish()
}

// EvalBase implements Aggregate.
func (a *Moments) EvalBase(treeParts []MomentsPartial, syns []MomentsSynopsis) MomentsValue {
	var n, s1, s2, s3 float64
	for _, p := range treeParts {
		n += float64(p.N)
		s1 += p.S1
		s2 += p.S2
		s3 += p.S3
	}
	if len(syns) > 0 {
		u := MomentsSynopsis{
			N:  syns[0].N.Clone(),
			S1: syns[0].S1.Clone(),
			S2: syns[0].S2.Clone(),
			S3: syns[0].S3.Clone(),
		}
		for _, s := range syns[1:] {
			u.N.Union(s.N)
			u.S1.Union(s.S1)
			u.S2.Union(s.S2)
			u.S3.Union(s.S3)
		}
		n += u.N.Estimate()
		s1 += u.S1.Estimate() / a.Scale
		s2 += u.S2.Estimate() / a.Scale
		s3 += u.S3.Estimate() / a.Scale
	}
	return momentsFromSums(n, s1, s2, s3)
}

// Exact implements Aggregate.
func (a *Moments) Exact(vs []float64) MomentsValue {
	var n, s1, s2, s3 float64
	for _, v := range vs {
		v = a.clamp(v)
		n++
		s1 += v
		s2 += v * v
		s3 += v * v * v
	}
	return momentsFromSums(n, s1, s2, s3)
}

// momentsFromSums derives central moments from power sums.
func momentsFromSums(n, s1, s2, s3 float64) MomentsValue {
	out := MomentsValue{Count: n}
	if n <= 0 {
		return out
	}
	mean := s1 / n
	variance := s2/n - mean*mean
	if variance < 0 {
		variance = 0 // sketch noise can push it slightly negative
	}
	out.Mean = mean
	out.Variance = variance
	if variance > 0 {
		m3 := s3/n - 3*mean*s2/n + 2*mean*mean*mean
		out.Skewness = m3 / math.Pow(variance, 1.5)
	}
	return out
}
