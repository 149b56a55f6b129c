// Package quantile implements mergeable ε-approximate quantile summaries in
// the Greenwald–Khanna tradition [8], the substrate for two pieces of the
// paper: the Quantiles-based frequent items baseline of Figure 8, and the
// §6.1.4 extension that drives quantile computation with the paper's
// precision gradients (budgeting prune error per tree height so the root
// meets a target ε with provable total communication).
//
// A Summary stores a sorted sequence of entries (value, rmin, rmax): rmin
// and rmax bound the rank of the value within everything the summary covers.
// Two operations preserve the bounds exactly:
//
//   - Merge: combines two summaries; rank bounds add (the classic mergeable
//     summaries construction).
//   - Prune(k): keeps ~k evenly rank-spaced entries, adding N/(2k) rank
//     error.
//
// The cumulative rank error is tracked in Eps (a fraction of N), so callers
// can verify the ε-approximation invariant: every query's true rank is
// within Eps·N of the answer's rank bounds.
package quantile

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"tributarydelta/internal/wire"
)

// Entry is one stored value with its rank bounds: the value's rank (1-based,
// over everything the summary covers) lies in [RMin, RMax].
type Entry struct {
	V          float64
	RMin, RMax int64
}

// Summary is a mergeable quantile summary. The zero value is an empty
// summary covering nothing.
type Summary struct {
	// Entries are sorted by V ascending.
	Entries []Entry
	// N is the number of observations covered.
	N int64
	// Eps is the accumulated rank-error fraction: any rank answer is off by
	// at most Eps·N.
	Eps float64
}

// FromSorted builds an exact summary (Eps 0) from sorted values.
func FromSorted(vals []float64) *Summary {
	s := &Summary{N: int64(len(vals))}
	s.Entries = make([]Entry, len(vals))
	for i, v := range vals {
		s.Entries[i] = Entry{V: v, RMin: int64(i + 1), RMax: int64(i + 1)}
	}
	return s
}

// FromUnsorted sorts a copy of vals and builds an exact summary.
func FromUnsorted(vals []float64) *Summary {
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	return FromSorted(cp)
}

// Clone returns a deep copy.
func (s *Summary) Clone() *Summary {
	return &Summary{Entries: append([]Entry(nil), s.Entries...), N: s.N, Eps: s.Eps}
}

// Size returns the number of stored entries.
func (s *Summary) Size() int { return len(s.Entries) }

// Words returns the message size in 32-bit words, measured from the actual
// wire encoding (see AppendWire) so the accounting can never drift from
// what is transmitted. The buffer is pre-sized (a capacity hint only, not
// accounting) to avoid growth reallocations.
func (s *Summary) Words() int {
	buf := make([]byte, 0, 16+16*len(s.Entries))
	return wire.Words(len(s.AppendWire(buf)))
}

// Merge combines two summaries into a new one covering both populations.
// Rank bounds follow the mergeable-summaries construction: an entry's rmin
// adds the rmin of its floor in the other summary; its rmax adds the rmax of
// the next entry above that floor (or the other summary's N if none).
// The error fractions combine by taking the max, weighted correctly:
// absolute error max(Eps1·N1 + Eps2·N2) stays ≤ max(Eps1,Eps2)·(N1+N2).
func Merge(a, b *Summary) *Summary {
	if a.N == 0 {
		return b.Clone()
	}
	if b.N == 0 {
		return a.Clone()
	}
	return MergeInto(&Summary{}, a, b)
}

// MergeInto overwrites dst with Merge(a, b), bit for bit, writing the
// entries into dst's storage: nothing allocates once dst's entry array has
// reached len(a.Entries)+len(b.Entries). dst must be neither a nor b.
func MergeInto(dst, a, b *Summary) *Summary {
	if a.N == 0 {
		dst.CopyFrom(b)
		return dst
	}
	if b.N == 0 {
		dst.CopyFrom(a)
		return dst
	}
	dst.N = a.N + b.N
	// Weighted error: (Eps_a·N_a + Eps_b·N_b)/(N_a+N_b) ≤ max(Eps_a, Eps_b).
	dst.Eps = (a.Eps*float64(a.N) + b.Eps*float64(b.N)) / float64(a.N+b.N)
	out := slices.Grow(dst.Entries[:0], len(a.Entries)+len(b.Entries))
	out = appendAdjusted(out, a, b)
	out = appendAdjusted(out, b, a)
	slices.SortFunc(out, cmpEntry)
	dst.Entries = out
	return dst
}

// CopyFrom overwrites s with other, reusing s's entry storage.
func (s *Summary) CopyFrom(other *Summary) {
	s.Entries = append(s.Entries[:0], other.Entries...)
	s.N, s.Eps = other.N, other.Eps
}

// appendAdjusted appends every entry of self to dst with its rank bounds
// widened by other — the Merge rule — in self's order.
func appendAdjusted(dst []Entry, self, other *Summary) []Entry {
	for _, e := range self.Entries {
		// floor: the largest entry of other with V < e.V (strictly), and
		// the successor entry.
		idx := sort.Search(len(other.Entries), func(i int) bool {
			return other.Entries[i].V >= e.V
		})
		var rminAdd, rmaxAdd int64
		if idx > 0 {
			rminAdd = other.Entries[idx-1].RMin
		}
		if idx < len(other.Entries) {
			rmaxAdd = other.Entries[idx].RMax - 1
		} else {
			rmaxAdd = other.N
		}
		dst = append(dst, Entry{V: e.V, RMin: e.RMin + rminAdd, RMax: e.RMax + rmaxAdd})
	}
	return dst
}

// cmpEntry orders merged entries by value, then by RMin.
func cmpEntry(x, y Entry) int {
	if x.V != y.V {
		if x.V < y.V {
			return -1
		}
		return 1
	}
	return cmp.Compare(x.RMin, y.RMin)
}

// Prune reduces the summary to at most k+1 entries by keeping entries
// closest to the ranks i·N/k, i = 0..k. It adds N/(2k) rank error, which is
// recorded in Eps. k must be positive.
func (s *Summary) Prune(k int) { s.PruneInto(k, nil) }

// PruneInto is Prune writing the kept entries into spare's storage. It
// returns the buffer to pass as spare next time: s's previous entry array
// when the prune replaced it, spare itself when nothing needed pruning.
func (s *Summary) PruneInto(k int, spare []Entry) []Entry {
	if k <= 0 {
		panic("quantile: Prune with non-positive k")
	}
	if len(s.Entries) <= k+1 {
		return spare
	}
	kept := spare[:0]
	if cap(kept) < k+1 {
		kept = make([]Entry, 0, k+1)
	}
	for i := 0; i <= k; i++ {
		target := int64(float64(i) * float64(s.N) / float64(k))
		if target < 1 {
			target = 1
		}
		e := s.lookupRank(target)
		if len(kept) == 0 || kept[len(kept)-1] != e {
			kept = append(kept, e)
		}
	}
	old := s.Entries[:0]
	s.Entries = kept
	s.Eps += 1 / float64(2*k)
	return old
}

// lookupRank returns the entry whose rank interval is closest to covering r.
func (s *Summary) lookupRank(r int64) Entry {
	best := s.Entries[0]
	bestDist := rankDist(best, r)
	for _, e := range s.Entries[1:] {
		if d := rankDist(e, r); d < bestDist {
			best, bestDist = e, d
		}
	}
	return best
}

func rankDist(e Entry, r int64) int64 {
	mid := (e.RMin + e.RMax) / 2
	if mid > r {
		return mid - r
	}
	return r - mid
}

// Query returns the value whose rank is approximately r (1-based). The true
// rank of the returned value is within Eps·N (plus the entry's own slack) of
// r.
func (s *Summary) Query(r int64) float64 {
	if len(s.Entries) == 0 {
		return 0
	}
	if r < 1 {
		r = 1
	}
	if r > s.N {
		r = s.N
	}
	return s.lookupRank(r).V
}

// Quantile returns the value at quantile q in [0, 1].
func (s *Summary) Quantile(q float64) float64 {
	return s.Query(int64(q*float64(s.N-1)) + 1)
}

// RankBounds returns lower and upper bounds on the rank of value v: the
// number of covered observations ≤ v is in [lo, hi].
func (s *Summary) RankBounds(v float64) (lo, hi int64) {
	idx := sort.Search(len(s.Entries), func(i int) bool { return s.Entries[i].V > v })
	// All entries below idx have V <= v.
	if idx > 0 {
		lo = s.Entries[idx-1].RMin
	}
	if idx < len(s.Entries) {
		hi = s.Entries[idx].RMax - 1
	} else {
		hi = s.N
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// CountEstimate estimates the number of occurrences of the exact value v
// (the frequent items derivation the Figure 8 baseline uses: rank range of v
// minus rank range just below v).
func (s *Summary) CountEstimate(v float64) float64 {
	loAt, hiAt := s.RankBounds(v)
	// Rank bounds just below v: count of observations < v.
	idx := sort.Search(len(s.Entries), func(i int) bool { return s.Entries[i].V >= v })
	var loBelow, hiBelow int64
	if idx > 0 {
		loBelow = s.Entries[idx-1].RMin
	}
	if idx < len(s.Entries) {
		hiBelow = s.Entries[idx].RMax - 1
	} else {
		hiBelow = s.N
	}
	if hiBelow < loBelow {
		hiBelow = loBelow
	}
	// Midpoint difference is the natural point estimate.
	est := float64(loAt+hiAt)/2 - float64(loBelow+hiBelow)/2
	if est < 0 {
		est = 0
	}
	return est
}

// Validate checks internal consistency: sortedness, bound sanity and the
// rank-coverage property. It returns the first violation.
func (s *Summary) Validate() error {
	for i, e := range s.Entries {
		if e.RMin < 1 || e.RMax > s.N || e.RMin > e.RMax {
			return fmt.Errorf("quantile: entry %d has bad rank bounds [%d,%d] (N=%d)", i, e.RMin, e.RMax, s.N)
		}
		if i > 0 && s.Entries[i-1].V > e.V {
			return fmt.Errorf("quantile: entries out of order at %d", i)
		}
	}
	return nil
}
