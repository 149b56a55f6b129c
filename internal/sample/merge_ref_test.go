package sample

import (
	"testing"

	"tributarydelta/internal/xrand"
)

// refInsert is the insert-based bottom-k step Merge used to run per item: a
// binary search for the rank, then a memmove to open the slot. It is the
// reference the linear merge is held to.
func refInsert(s *Sample, it Item) {
	lo, hi := 0, len(s.items)
	for lo < hi {
		m := (lo + hi) / 2
		if s.items[m].Rank >= it.Rank {
			hi = m
		} else {
			lo = m + 1
		}
	}
	i := lo
	if i < len(s.items) && s.items[i].Rank == it.Rank {
		return // duplicate identity
	}
	if i >= s.k {
		return
	}
	s.items = append(s.items, Item{})
	copy(s.items[i+1:], s.items[i:])
	s.items[i] = it
	if len(s.items) > s.k {
		s.items = s.items[:s.k]
	}
}

// refMerge is the reference fold: other's items inserted one at a time.
func refMerge(s, other *Sample) {
	if len(other.items) == 0 {
		return
	}
	s.adoptEpoch(other.epoch)
	for _, it := range other.items {
		refInsert(s, it)
	}
}

// overlapping returns m samples of capacity k over one rank epoch whose
// node sets overlap heavily — the shape of a delta inbox, where the same
// readings arrive over several paths. A node's value depends on the sample
// it is in, so the tie rule (of two items with one rank the earlier input's
// wins) is observable.
func overlapping(src *xrand.Source, m, k int) []*Sample {
	out := make([]*Sample, m)
	for i := range out {
		s := New(k)
		for n := src.Intn(3 * k); n > 0; n-- {
			node := src.Intn(4 * k)
			s.Add(7, 3, node, float64(node)+float64(i)/8)
		}
		out[i] = s
	}
	return out
}

// TestMergeMatchesInsertReference holds the linear two-way merge to the
// insert-based reference, bit for bit, on recycled destinations.
func TestMergeMatchesInsertReference(t *testing.T) {
	src := xrand.NewSource(41)
	dst := New(1)
	for trial := 0; trial < 5000; trial++ {
		k := 1 + src.Intn(24)
		in := overlapping(src, 2, k)
		want := in[0].Clone()
		refMerge(want, in[1])
		if dst.k != k {
			dst = New(k)
		}
		dst.CopyFrom(in[0]) // dst's spare holds the previous trial's items
		dst.Merge(in[1])
		if !sameSample(dst, want) {
			t.Fatalf("trial %d (k %d): Merge = %v, reference %v", trial, k, dst.Items(), want.Items())
		}
		self := in[0].Clone()
		self.Merge(self)
		if !sameSample(self, in[0]) {
			t.Fatalf("trial %d: self-merge changed the sample", trial)
		}
	}
}

// FuzzMergeMatchesInsertReference drives the merge from arbitrary bytes:
// each byte pair picks a sample and a node (so ranks collide across
// samples), and the linear merge's fold must equal the reference.
func FuzzMergeMatchesInsertReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 1, 1, 3}, uint8(2))
	f.Add([]byte{3, 9, 2, 9, 1, 9, 0, 9, 3, 4, 2, 5}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		k := 1 + int(kRaw)%16
		in := []*Sample{New(k), New(k), New(k), New(k)}
		for i := 0; i+1 < len(data); i += 2 {
			which, node := int(data[i]%4), int(data[i+1])
			in[which].Add(5, 2, node, float64(node)+float64(which)/4)
		}
		want := in[0].Clone()
		for _, o := range in[1:] {
			refMerge(want, o)
		}
		pair := in[0].Clone()
		for _, o := range in[1:] {
			pair.Merge(o)
		}
		if !sameSample(pair, want) {
			t.Fatalf("Merge fold = %v, reference %v", pair.Items(), want.Items())
		}
	})
}
