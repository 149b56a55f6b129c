package sample

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"tributarydelta/internal/wire"
)

// Wire codec. A sample travels as its item count, then — unless it is
// empty — its rank epoch once, then each item in rank order as its owning
// node and its reading. Ranks are not sent: a rank is Rank(seed, epoch,
// node), which the receiver recomputes from the deployment seed it already
// holds, and re-checks — ranks that do not ascend strictly are malformed.
// Dropping the 8-byte rank shrinks a sensor-style item from about 11 bytes
// to about 3. The capacity k and the seed are deployment configuration and
// are not transmitted. The encoding is canonical: every varint is minimal,
// so an accepted message re-encodes to exactly its own bytes.

// AppendWire appends the lossless wire encoding of the sample to dst.
func (s *Sample) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s.items)))
	if len(s.items) == 0 {
		return dst
	}
	dst = wire.AppendUvarint(dst, s.epoch)
	for _, it := range s.items {
		dst = wire.AppendUvarint(dst, uint64(it.Node))
		dst = wire.AppendFloat64(dst, it.Value)
	}
	return dst
}

// RankMemo tables the ranks of nodes [0, n) for one (seed, rank epoch) at a
// time, so a decoder that sees many samples of the same epoch — every frame
// of a reseeding window — pays a table lookup per item instead of a hash.
// A lookup for another seed or epoch builds and publishes a fresh table; a
// table is never written after it is published, so decoders may share a
// memo across goroutines. A nil *RankMemo hashes every rank.
type RankMemo struct {
	n   int
	cur atomic.Pointer[rankTable]
}

// rankTable is one published memo generation.
type rankTable struct {
	seed, epoch uint64
	ranks       []uint64
}

// NewRankMemo returns a memo covering node ids [0, nodes).
func NewRankMemo(nodes int) *RankMemo { return &RankMemo{n: nodes} }

// Rank returns Rank(seed, epoch, node), from the table when node is in it.
func (m *RankMemo) Rank(seed, epoch, node uint64) uint64 {
	if ranks := m.ranks(seed, epoch); node < uint64(len(ranks)) {
		return ranks[node]
	}
	return Rank(seed, epoch, node)
}

// ranks returns the rank table of (seed, epoch), nil for a nil memo.
func (m *RankMemo) ranks(seed, epoch uint64) []uint64 {
	if m == nil {
		return nil
	}
	if t := m.cur.Load(); t != nil && t.seed == seed && t.epoch == epoch {
		return t.ranks
	}
	t := &rankTable{seed: seed, epoch: epoch, ranks: make([]uint64, m.n)}
	for node := range t.ranks {
		t.ranks[node] = Rank(seed, epoch, uint64(node))
	}
	m.cur.Store(t)
	return t.ranks
}

// DecodeWire parses a sample of capacity k whose ranks derive from seed.
// Items must arrive in strictly ascending rank order (the canonical form
// AppendWire emits) and must not exceed the capacity.
func DecodeWire(data []byte, seed uint64, k int) (*Sample, error) {
	r := wire.NewReader(data)
	s, err := ReadWire(r, seed, nil, k)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadWire parses one sample of capacity k from a reader positioned at its
// first byte — the form used when a sample is one field of a larger message
// (the Quantiles aggregate's partial and synopsis). Ranks derive from seed,
// through memo when it is non-nil. The reader is left positioned after the
// sample; callers compose further fields or Finish.
func ReadWire(r *wire.Reader, seed uint64, memo *RankMemo, k int) (*Sample, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sample: decode with non-positive capacity %d", k)
	}
	s := New(k)
	if err := ReadWireInto(r, seed, memo, s); err != nil {
		return nil, err
	}
	return s, nil
}

// errRankOrder reports an encoding whose ranks do not ascend strictly.
var errRankOrder = fmt.Errorf("sample: ranks out of order: %w", wire.ErrMalformed)

// ReadWireInto is ReadWire decoding into a recycled sample: dst is fully
// overwritten, and nothing allocates once its backing array has reached the
// decoded length (and memo holds the epoch's table). The sample's capacity k
// comes from dst. Every varint is read through the reader's minimal-form
// readers, so whatever is accepted re-encodes to the very same bytes; a float
// travels as the uvarint of its byte-reversed bit pattern
// (wire.AppendFloat64), so it is read that way too.
func ReadWireInto(r *wire.Reader, seed uint64, memo *RankMemo, dst *Sample) error {
	n := r.MinimalCount(2) // node(>=1) + value(>=1)
	if r.Err() == nil && n > dst.k {
		return fmt.Errorf("sample: %d items exceed capacity %d: %w", n, dst.k, wire.ErrMalformed)
	}
	dst.Reset()
	if n == 0 {
		return r.Err()
	}
	epoch := r.MinimalUvarint()
	ranks := memo.ranks(seed, epoch)
	var prev uint64
	for i := 0; i < n; i++ {
		node := r.MinimalUvarint()
		value := math.Float64frombits(bits.ReverseBytes64(r.MinimalUvarint()))
		if r.Err() != nil {
			return r.Err()
		}
		var rank uint64
		if node < uint64(len(ranks)) {
			rank = ranks[node]
		} else {
			rank = Rank(seed, epoch, node)
		}
		if i > 0 && rank <= prev {
			return errRankOrder
		}
		prev = rank
		dst.items = append(dst.items, Item{Rank: rank, Node: int(node), Value: value})
	}
	dst.epoch = epoch
	return nil
}
