package aggregate

import (
	"tributarydelta/internal/sample"
	"tributarydelta/internal/wire"
)

// UniformSample adapts the bottom-k duplicate-insensitive sample of
// internal/sample to the Aggregate interface. Because min-wise samples are
// idempotent under merge, the same structure is both tree partial and
// synopsis and Convert is (a copy-safe) identity — the paper lists Uniform
// Sample among the aggregates with simple conversion functions and notes it
// extends the framework to Quantiles and Statistical Moments (§5).
type UniformSample struct {
	Seed uint64
	// SampleK is the bottom-k capacity.
	SampleK int
}

// NewUniformSample returns a sampler keeping k readings.
func NewUniformSample(seed uint64, k int) *UniformSample {
	return &UniformSample{Seed: seed, SampleK: k}
}

// Name implements Aggregate.
func (a *UniformSample) Name() string { return "UniformSample" }

// Local implements Aggregate.
func (a *UniformSample) Local(epoch, node int, v float64) *sample.Sample {
	s := sample.New(a.SampleK)
	s.Add(a.Seed, epoch, node, v)
	return s
}

// MergeTree implements Aggregate.
func (a *UniformSample) MergeTree(acc, in *sample.Sample) *sample.Sample {
	acc.Merge(in)
	return acc
}

// FinalizeTree implements Aggregate (no-op).
func (a *UniformSample) FinalizeTree(_, _ int, p *sample.Sample) *sample.Sample { return p }

// AppendPartial implements Aggregate.
func (a *UniformSample) AppendPartial(dst []byte, p *sample.Sample) []byte {
	return p.AppendWire(dst)
}

// DecodePartial implements Aggregate: ranks are recomputed from the seed,
// not read.
func (a *UniformSample) DecodePartial(data []byte) (*sample.Sample, error) {
	return sample.DecodeWire(data, a.Seed, a.SampleK)
}

// Convert implements Aggregate: identity up to copying (the synopsis must
// not alias the tree partial, which its producer may keep).
func (a *UniformSample) Convert(_, _ int, p *sample.Sample) *sample.Sample {
	return p.Clone()
}

// NewSynopsis implements SynopsisRecycler.
func (a *UniformSample) NewSynopsis() *sample.Sample { return sample.New(a.SampleK) }

// ConvertInto implements SynopsisRecycler: the identity conversion into a
// recycled sample.
func (a *UniformSample) ConvertInto(_, _ int, p *sample.Sample, dst *sample.Sample) *sample.Sample {
	dst.CopyFrom(p)
	return dst
}

// DecodeSynopsisInto implements SynopsisRecycler.
func (a *UniformSample) DecodeSynopsisInto(data []byte, dst *sample.Sample) (*sample.Sample, error) {
	r := wire.NewReader(data)
	if err := sample.ReadWireInto(r, a.Seed, nil, dst); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return dst, nil
}

// Fuse implements Aggregate.
func (a *UniformSample) Fuse(acc, in *sample.Sample) *sample.Sample {
	acc.Merge(in)
	return acc
}

// AppendSynopsis implements Aggregate: samples use one codec for both
// roles, like the structure itself.
func (a *UniformSample) AppendSynopsis(dst []byte, s *sample.Sample) []byte {
	return s.AppendWire(dst)
}

// DecodeSynopsis implements Aggregate.
func (a *UniformSample) DecodeSynopsis(data []byte) (*sample.Sample, error) {
	return sample.DecodeWire(data, a.Seed, a.SampleK)
}

// EvalBase implements Aggregate.
func (a *UniformSample) EvalBase(treeParts []*sample.Sample, syns []*sample.Sample) *sample.Sample {
	out := sample.New(a.SampleK)
	for _, p := range treeParts {
		out.Merge(p)
	}
	for _, s := range syns {
		out.Merge(s)
	}
	return out
}

// Exact implements Aggregate: the "exact sample" is the whole population,
// which experiments compare against via order statistics.
func (a *UniformSample) Exact(vs []float64) *sample.Sample {
	k := len(vs)
	if k == 0 {
		k = 1
	}
	out := sample.New(k)
	for i, v := range vs {
		out.Add(a.Seed, 0, i, v)
	}
	return out
}
