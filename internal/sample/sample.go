// Package sample implements the duplicate-insensitive uniform sample of §5:
// a bottom-k (min-wise) hash sample. Every reading is tagged with a uniform
// hash of its identity; a sample keeps the k smallest-hash readings seen.
// Because the hash is a pure function of the reading's identity, merging two
// samples — in a tree or over multi-path routes — is idempotent, so the very
// same structure serves as tree partial and as synopsis, with an identity
// conversion function. The paper notes the Uniform Sample algorithm extends
// the framework to Quantiles and Statistical Moments.
package sample

import (
	"fmt"
	"slices"
	"sort"

	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// Item is one sampled reading: its owner and value, ranked by Rank.
type Item struct {
	// Rank is the uniform hash that orders the bottom-k sample.
	Rank uint64
	// Node is the sensor that produced the reading.
	Node int
	// Value is the reading.
	Value float64
}

// Rank is the bottom-k rank of node's reading in the given rank epoch: a
// uniform hash of the reading's identity under the deployment seed. Any node
// that knows the seed can recompute it, which is why the wire carries the
// rank epoch once per sample and no rank at all.
func Rank(seed, epoch, node uint64) uint64 {
	return xrand.Hash(seed, 0x5A11, epoch, node)
}

// Sample is a bottom-k sample. Every item of a sample shares one rank epoch
// (the epoch its ranks were drawn in); mixing epochs panics, because the
// ranks of two epochs do not form one uniform sample and the wire format
// cannot represent them. The zero value is unusable; construct with New.
type Sample struct {
	k     int
	epoch uint64 // the items' rank epoch; 0 while empty
	items []Item // sorted ascending by Rank, at most k entries, unique ranks
}

// New returns an empty sample of capacity k. It panics if k <= 0.
func New(k int) *Sample {
	if k <= 0 {
		panic("sample: New with non-positive k")
	}
	return &Sample{k: k}
}

// K returns the sample capacity.
func (s *Sample) K() int { return s.k }

// Len returns the number of items currently held.
func (s *Sample) Len() int { return len(s.items) }

// RankEpoch returns the rank epoch every held item was ranked in (0 for an
// empty sample).
func (s *Sample) RankEpoch() uint64 { return s.epoch }

// Items returns the held items in rank order. The slice is shared; callers
// must not modify it.
func (s *Sample) Items() []Item { return s.items }

// Add inserts the reading of node for the given rank epoch. The rank is
// Rank(seed, epoch, node), so re-adding the same reading — or merging a
// sample that already contains it — cannot inflate its weight. It panics if
// the sample already holds items of another rank epoch.
func (s *Sample) Add(seed uint64, epoch, node int, value float64) {
	s.AddMemo(seed, nil, epoch, node, value)
}

// AddMemo is Add with the rank looked up in memo's table for the rank epoch
// (a nil memo hashes it) — the same rank either way, so the same sample.
func (s *Sample) AddMemo(seed uint64, memo *RankMemo, epoch, node int, value float64) {
	s.adoptEpoch(uint64(epoch))
	s.insert(Item{Rank: memo.Rank(seed, uint64(epoch), uint64(node)), Node: node, Value: value})
}

// adoptEpoch makes epoch the sample's rank epoch: an empty sample takes it,
// a non-empty one must already have it.
func (s *Sample) adoptEpoch(epoch uint64) {
	if len(s.items) == 0 {
		s.epoch = epoch
	} else if s.epoch != epoch {
		panic(fmt.Sprintf("sample: mixing rank epochs %d and %d", s.epoch, epoch))
	}
}

// insert places it into rank order, dropping duplicates and trimming to k.
func (s *Sample) insert(it Item) {
	i := sort.Search(len(s.items), func(j int) bool { return s.items[j].Rank >= it.Rank })
	if i < len(s.items) && s.items[i].Rank == it.Rank {
		return // duplicate identity
	}
	if i >= s.k {
		return // ranks too large to matter
	}
	s.items = append(s.items, Item{})
	copy(s.items[i+1:], s.items[i:])
	s.items[i] = it
	if len(s.items) > s.k {
		s.items = s.items[:s.k]
	}
}

// Merge folds other into s. Merge is commutative, associative and
// idempotent. Both samples must have the same capacity and, unless one is
// empty, the same rank epoch; it panics otherwise. Of two items with the
// same rank (the same identity) s keeps its own.
//
// The fold is linear and in place: a forward pass over both rank-sorted
// lists finds how many items of each survive the bottom-k cut, and a
// backward pass merges exactly those into s's own array from its far end,
// where the write position never overtakes an unread item of s. No second
// buffer is needed, so a recycled sample merges without allocating once its
// array has reached k.
func (s *Sample) Merge(other *Sample) {
	if s.k != other.k {
		panic("sample: merging samples of different capacities")
	}
	if len(other.items) == 0 {
		return
	}
	s.adoptEpoch(other.epoch)
	a, b := s.items, other.items // a == b for a self-merge: every item is a duplicate
	i, j, n := 0, 0, 0           // items of a and of b in the cut, and its length
	for n < s.k && i < len(a) && j < len(b) {
		ra, rb := a[i].Rank, b[j].Rank
		if ra <= rb {
			i++
		}
		if rb <= ra {
			j++
		}
		n++
	}
	// One side is spent (or the cut is full): the other's rest fills the cut.
	if d := min(len(a)-i, s.k-n); d > 0 {
		i, n = i+d, n+d
	} else if d := min(len(b)-j, s.k-n); d > 0 {
		j, n = j+d, n+d
	}
	if n > len(a) {
		a = slices.Grow(a, n-len(a))
	}
	a = a[:n]
	w := n - 1
	for i > 0 && j > 0 {
		if ra, rb := a[i-1].Rank, b[j-1].Rank; ra >= rb {
			a[w] = a[i-1]
			i--
			if ra == rb {
				j--
			}
		} else {
			a[w] = b[j-1]
			j--
		}
		w--
	}
	copy(a, b[:j]) // a is spent: the rest of the cut is b's
	s.items = a
}

// Clone returns a deep copy.
func (s *Sample) Clone() *Sample {
	c := New(s.k)
	c.epoch = s.epoch
	c.items = append(c.items, s.items...)
	return c
}

// Reset empties the sample without releasing its storage — the recycling
// primitive behind the epoch engine's reused synopses and partials.
func (s *Sample) Reset() {
	s.items = s.items[:0]
	s.epoch = 0
}

// CopyFrom overwrites s — items and rank epoch — with other's, without
// allocating once s's backing array has grown to other's length. Both
// samples must have the same capacity k; it panics otherwise. (It replaces
// rather than folds, so it cannot mix rank epochs.)
func (s *Sample) CopyFrom(other *Sample) {
	if s.k != other.k {
		panic("sample: copying samples of different capacities")
	}
	s.epoch = other.epoch
	s.items = append(s.items[:0], other.items...)
}

// Words returns the message size in 32-bit words, measured from the actual
// wire encoding so the accounting can never drift from what is transmitted.
// The buffer is pre-sized (a capacity hint only, not accounting).
func (s *Sample) Words() int {
	buf := make([]byte, 0, 8+22*len(s.items))
	return wire.Words(len(s.AppendWire(buf)))
}

// Values returns just the sampled values, in rank order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.items))
	for i, it := range s.items {
		out[i] = it.Value
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the population from the
// sample by order statistics over the sampled values.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.items) == 0 {
		return 0
	}
	vals := s.Values()
	sort.Float64s(vals)
	idx := int(q * float64(len(vals)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}
