package tributarydelta

// Deprecated facade shims for the remaining §5 aggregates: Min, Max,
// Average, statistical Moments and the duplicate-insensitive Uniform
// sample. Each delegates to Open with the corresponding Query descriptor;
// answers are unchanged from the original constructor-per-aggregate
// surface (the golden parity test pins this).

import (
	"fmt"

	"tributarydelta/internal/sample"
)

// NewMinSession builds a session tracking the minimum reading. Min is
// idempotent, so multi-path aggregation introduces no approximation error
// (§5) — the answer is exact whenever the reading's node contributes.
//
// Deprecated: use Open with Min.
func NewMinSession(d *Deployment, scheme Scheme, seed uint64, value func(epoch, node int) float64) (*Session[float64], error) {
	return Open(d, Min(value), WithScheme(scheme), WithSeed(seed))
}

// NewMaxSession builds a session tracking the maximum reading; see
// NewMinSession.
//
// Deprecated: use Open with Max.
func NewMaxSession(d *Deployment, scheme Scheme, seed uint64, value func(epoch, node int) float64) (*Session[float64], error) {
	return Open(d, Max(value), WithScheme(scheme), WithSeed(seed))
}

// NewAverageSession builds a session computing the mean reading as
// Sum/Count (both exact in the tributaries, sketched in the delta).
//
// Deprecated: use Open with Average.
func NewAverageSession(d *Deployment, scheme Scheme, seed uint64, value func(epoch, node int) float64) (*Session[float64], error) {
	return Open(d, Average(value), WithScheme(scheme), WithSeed(seed))
}

// MomentsResult is one collection round's outcome for the Moments session.
type MomentsResult struct {
	// Epoch is the round number.
	Epoch int
	// Value holds the estimated mean, variance and skewness.
	Value MomentsValue
	// TrueContrib is the exact number of sensors represented in Value.
	TrueContrib int
	// DeltaSize is the current size of the multi-path delta region.
	DeltaSize int
}

// MomentsSession computes mean, variance and skewness (§5's statistical
// moments, via duplicate-insensitive power sums).
//
// Deprecated: use Open with Moments, which exposes the same rounds through
// the generic Session API.
type MomentsSession struct {
	s *Session[MomentsValue]
}

// NewMomentsSession builds a Moments session over non-negative readings.
//
// Deprecated: use Open with Moments.
func NewMomentsSession(d *Deployment, scheme Scheme, seed uint64, value func(epoch, node int) float64) (*MomentsSession, error) {
	s, err := Open(d, Moments(value), WithScheme(scheme), WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return &MomentsSession{s: s}, nil
}

// RunEpoch executes one collection round.
func (s *MomentsSession) RunEpoch(epoch int) MomentsResult {
	res := s.s.RunEpoch(epoch)
	return MomentsResult{
		Epoch:       epoch,
		Value:       res.Answer,
		TrueContrib: res.TrueContrib,
		DeltaSize:   res.DeltaSize,
	}
}

// ExactValue computes the ground-truth moments for an epoch.
func (s *MomentsSession) ExactValue(epoch int) MomentsValue {
	return s.s.ExactAnswer(epoch)
}

// Close releases the session's UDP runtime, if enabled; see Session.Close.
func (s *MomentsSession) Close() { s.s.Close() }

// SampleResult is one collection round's outcome for the sampling session.
type SampleResult struct {
	// Epoch is the round number.
	Epoch int
	// Sample is the collected bottom-k uniform sample.
	Sample *sample.Sample
	// TrueContrib is the exact number of sensors represented in Sample.
	TrueContrib int
}

// SampleSession maintains a duplicate-insensitive uniform sample of k
// readings (§5), usable for quantiles and other order statistics.
//
// Deprecated: use Open with Sample, which exposes the same rounds through
// the generic Session API (or Quantiles for rank queries with tree-side
// precision).
type SampleSession struct {
	s *Session[*sample.Sample]
}

// NewSampleSession builds a bottom-k sampling session.
//
// Deprecated: use Open with Sample.
func NewSampleSession(d *Deployment, scheme Scheme, seed uint64, k int, value func(epoch, node int) float64) (*SampleSession, error) {
	if k <= 0 {
		return nil, fmt.Errorf("tributarydelta: sample capacity must be positive, got %d", k)
	}
	s, err := Open(d, Sample(k, value), WithScheme(scheme), WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return &SampleSession{s: s}, nil
}

// RunEpoch executes one collection round.
func (s *SampleSession) RunEpoch(epoch int) SampleResult {
	res := s.s.RunEpoch(epoch)
	return SampleResult{Epoch: epoch, Sample: res.Answer, TrueContrib: res.TrueContrib}
}

// Close releases the session's UDP runtime, if enabled; see Session.Close.
func (s *SampleSession) Close() { s.s.Close() }
