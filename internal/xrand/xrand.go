// Package xrand provides deterministic, splittable pseudo-randomness for the
// simulator. Every stochastic decision in a simulation run — a message loss,
// a hash placement, a workload draw — is a pure function of a seed and the
// identifiers of the entities involved. This makes runs bit-reproducible and
// independent of execution order, so the epoch engine may process nodes of a
// level concurrently (one goroutine per node) without perturbing results.
//
// The core primitive is a 64-bit mixing function (SplitMix64 finalizer,
// Stafford variant 13) applied to a running combination of the inputs. The
// mixer passes standard avalanche tests and is adequate for simulation
// purposes; it is not cryptographic.
package xrand

import "math"

// Mix64 is the SplitMix64 finalizer. It maps a 64-bit value to a
// statistically independent-looking 64-bit value.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Combine folds b into a running hash a, returning a new hash. Combine is
// not commutative, so the order of folded values matters — callers must fold
// identifiers in a fixed, documented order.
func Combine(a, b uint64) uint64 {
	return Mix64(a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2)))
}

// Hash hashes the seed and a sequence of identifiers into one 64-bit value.
func Hash(seed uint64, ids ...uint64) uint64 {
	h := Mix64(seed + 0x9e3779b97f4a7c15)
	for _, id := range ids {
		h = Combine(h, id)
	}
	return h
}

// Split derives the seed of a statistically independent sub-stream from a
// parent seed and the identifiers of the entity owning the sub-stream — the
// splittable-RNG discipline that keeps every delivery backend deterministic:
// every node (and every epoch) draws from its own (seed, ids...) sub-stream,
// so the bits a node consumes are a pure function of identity, never of
// scheduling order. Split(seed, ids...)
// is Hash(seed, ids...) by definition; the separate name documents intent
// (namespacing a stream) versus Hash's (consuming one value).
func Split(seed uint64, ids ...uint64) uint64 {
	return Hash(seed, ids...)
}

// Float64 maps a hash to the half-open interval [0, 1).
func Float64(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Bernoulli reports whether a trial with success probability p succeeds,
// using h as the randomness. Probabilities outside [0,1] are clamped.
func Bernoulli(h uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Float64(h) < p
}

// Source is a deterministic stream of pseudo-random values identified by a
// key. Two Sources constructed with the same key produce identical streams.
// The zero value is a valid Source with key 0.
type Source struct {
	state uint64
	ctr   uint64
}

// NewSource returns a Source whose stream is determined by seed and ids.
func NewSource(seed uint64, ids ...uint64) *Source {
	return &Source{state: Hash(seed, ids...)}
}

// Uint64 returns the next value of the stream.
func (s *Source) Uint64() uint64 {
	s.ctr++
	return Mix64(s.state + s.ctr*0x9e3779b97f4a7c15)
}

// Float64 returns the next value of the stream in [0, 1).
func (s *Source) Float64() float64 {
	return Float64(s.Uint64())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping; bias is negligible for the
	// simulation ranges used here (n << 2^32).
	return int((s.Uint64() >> 32) * uint64(n) >> 32)
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, via the Box–Muller transform.
func (s *Source) NormFloat64() float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Bernoulli reports a success with probability p drawn from the stream.
func (s *Source) Bernoulli(p float64) bool {
	return Bernoulli(s.Uint64(), p)
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials (support {0, 1, 2, ...}). It panics if p
// is not in (0, 1].
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric probability out of range")
	}
	if p == 1 {
		return 0
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Binomial returns a draw from Binomial(n, p). It uses direct simulation for
// small n and a normal approximation with continuity correction for large n,
// which is accurate to well under the simulation noise floor for the sketch
// insertion counts used here.
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*s.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// Zipf draws values in [0, n) following a Zipf distribution with exponent
// alpha > 0 (rank 0 most frequent). The cumulative table is precomputed by
// NewZipf; draws are O(log n).
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a Zipf sampler over n ranks with the given exponent, drawing
// randomness from src. It panics if n <= 0 or alpha <= 0.
func NewZipf(src *Source, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("xrand: Zipf with non-positive n")
	}
	if alpha <= 0 {
		panic("xrand: Zipf with non-positive alpha")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// Draw returns the next Zipf-distributed rank.
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
