package sample

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) should panic")
		}
	}()
	New(0)
}

func TestAddAndCapacity(t *testing.T) {
	s := New(5)
	for node := 1; node <= 100; node++ {
		s.Add(1, 0, node, float64(node))
	}
	if s.Len() != 5 {
		t.Fatalf("len = %d, want capacity 5", s.Len())
	}
	// Items must be in ascending rank order.
	items := s.Items()
	for i := 1; i < len(items); i++ {
		if items[i-1].Rank >= items[i].Rank {
			t.Fatal("items out of rank order")
		}
	}
}

func TestDuplicateInsensitive(t *testing.T) {
	a, b := New(10), New(10)
	for node := 1; node <= 30; node++ {
		a.Add(2, 0, node, float64(node))
		b.Add(2, 0, node, float64(node))
		b.Add(2, 0, node, float64(node)) // duplicate
	}
	b.Merge(a) // merging an equal sample is a no-op
	if a.Len() != b.Len() {
		t.Fatal("duplicate adds changed the sample size")
	}
	ia, ib := a.Items(), b.Items()
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("duplicate adds changed the sample contents")
		}
	}
}

func TestMergeProperties(t *testing.T) {
	mk := func(lo, hi int) *Sample {
		s := New(8)
		for n := lo; n < hi; n++ {
			s.Add(3, 0, n, float64(n))
		}
		return s
	}
	a, b := mk(0, 40), mk(20, 60)
	ab := a.Clone()
	ab.Merge(b)
	ba := b.Clone()
	ba.Merge(a)
	if ab.Len() != ba.Len() {
		t.Fatal("merge not commutative in size")
	}
	for i := range ab.Items() {
		if ab.Items()[i] != ba.Items()[i] {
			t.Fatal("merge not commutative in contents")
		}
	}
	// Idempotence.
	aa := a.Clone()
	aa.Merge(a)
	if aa.Len() != a.Len() {
		t.Fatal("merge not idempotent")
	}
}

func TestMergePanicsOnCapacityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).Merge(New(4))
}

func TestUniformity(t *testing.T) {
	// Every node must have (roughly) equal probability of being sampled:
	// run many epochs and count inclusion of each node.
	const nodes = 50
	const k = 10
	const epochs = 4000
	counts := make([]int, nodes)
	for e := 0; e < epochs; e++ {
		s := New(k)
		for n := 0; n < nodes; n++ {
			s.Add(7, e, n, 0)
		}
		for _, it := range s.Items() {
			counts[it.Node]++
		}
	}
	want := float64(epochs) * k / nodes
	for n, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Fatalf("node %d sampled %d times, want ~%v", n, c, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := New(100)
	for n := 0; n < 100; n++ {
		s.Add(9, 0, n, float64(n))
	}
	med := s.Quantile(0.5)
	if med < 20 || med > 80 {
		t.Fatalf("median of 0..99 sample = %v", med)
	}
	if (&Sample{k: 3}).Quantile(0.5) != 0 {
		t.Fatal("empty sample quantile should be 0")
	}
}

func TestWordsAndValues(t *testing.T) {
	s := New(4)
	s.Add(1, 0, 1, 10)
	s.Add(1, 0, 2, 20)
	// Words is derived from the real wire encoding, never hand-estimated.
	if want := wire.Words(len(s.AppendWire(nil))); s.Words() != want {
		t.Fatalf("words = %d, want %d (encoded length)", s.Words(), want)
	}
	// No rank travels: count, rank epoch, then a one-byte node and a
	// two-byte reading per item — 8 bytes, 2 words.
	if n := len(s.AppendWire(nil)); n != 1+1+2*(1+2) || s.Words() != 2 {
		t.Fatalf("2-item sample costs %d bytes / %d words, want 8 / 2", n, s.Words())
	}
	if len(s.Values()) != 2 {
		t.Fatal("values length")
	}
	if n := len(New(4).AppendWire(nil)); n != 1 {
		t.Fatalf("empty sample costs %d bytes, want the one count byte", n)
	}
}

// sampleOf returns a sample of capacity k over readings of nodes 0..n-1 in
// rank epoch epoch.
func sampleOf(seed uint64, epoch, k, n int) *Sample {
	s := New(k)
	src := xrand.NewSource(seed, uint64(epoch))
	for node := 0; node < n; node++ {
		s.Add(seed, epoch, node, src.Float64()*100)
	}
	return s
}

func sameSample(a, b *Sample) bool {
	if a.K() != b.K() || a.Len() != b.Len() || a.RankEpoch() != b.RankEpoch() {
		return false
	}
	for i, it := range a.Items() {
		o := b.Items()[i]
		if it.Rank != o.Rank || it.Node != o.Node || math.Float64bits(it.Value) != math.Float64bits(o.Value) {
			return false
		}
	}
	return true
}

func TestWireRoundTrip(t *testing.T) {
	s := New(8)
	src := xrand.NewSource(42)
	for i := 0; i < 30; i++ {
		s.Add(3, 1, src.Intn(500), src.Float64()*100)
	}
	enc := s.AppendWire(nil)
	got, err := DecodeWire(enc, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSample(got, s) {
		t.Fatalf("round trip changed the sample: %+v vs %+v", got.Items(), s.Items())
	}
	// Truncations must error, never panic.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeWire(enc[:i], 3, 8); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Over-capacity encodings are rejected.
	if _, err := DecodeWire(enc, 3, 2); err == nil {
		t.Fatal("sample above capacity accepted")
	}
	// Decoded under another seed the recomputed ranks no longer ascend
	// (8 items: a random order ascends with probability 1/8!).
	if _, err := DecodeWire(enc, 4, 8); err == nil {
		t.Fatal("sample decoded under the wrong seed")
	}
}

// TestDecodeWireRejectsNonCanonical: ranks are recomputed, so an item order
// that is not the rank order, a repeated node, and any non-minimal varint
// must all be refused — everything accepted re-encodes to its own bytes.
func TestDecodeWireRejectsNonCanonical(t *testing.T) {
	s := sampleOf(5, 7, 4, 50)
	items := s.Items()
	frame := func(epoch []byte, order ...int) []byte {
		out := append(wire.AppendUvarint(nil, uint64(len(order))), epoch...)
		for _, i := range order {
			out = wire.AppendUvarint(out, uint64(items[i].Node))
			out = wire.AppendFloat64(out, items[i].Value)
		}
		return out
	}
	epoch := wire.AppendUvarint(nil, 7)
	if _, err := DecodeWire(frame(epoch, 0, 1, 2, 3), 5, 4); err != nil {
		t.Fatalf("canonical frame rejected: %v", err)
	}
	padded := append(wire.AppendUvarint(nil, 4), 0x87, 0x00) // 7 as two bytes
	for name, bad := range map[string][]byte{
		"swapped items":         frame(epoch, 0, 2, 1, 3),
		"repeated item":         frame(epoch, 0, 1, 1, 3),
		"non-minimal epoch":     append(padded, frame(nil, 0, 1, 2, 3)[1:]...),
		"non-minimal count":     append([]byte{0x84, 0x00}, frame(epoch, 0, 1, 2, 3)[1:]...),
		"non-minimal empty":     {0x80, 0x00},
		"trailing byte":         append(frame(epoch, 0, 1, 2, 3), 0),
		"epoch of empty sample": {0, 7},
	} {
		if _, err := DecodeWire(bad, 5, 4); err == nil {
			t.Errorf("DecodeWire accepted %s", name)
		} else if !errors.Is(err, wire.ErrMalformed) && !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("%s: error %v is neither ErrMalformed nor ErrTruncated", name, err)
		}
	}
	// A non-minimal node or value varint inside an item.
	node := frame(epoch, 0, 1, 2, 3)
	i := 2 // the first item's node varint
	if node[i]&0x80 == 0 {
		long := append(append(append([]byte(nil), node[:i]...), node[i]|0x80, 0), node[i+1:]...)
		if _, err := DecodeWire(long, 5, 4); err == nil {
			t.Error("DecodeWire accepted a non-minimal node id")
		}
	}
}

// TestMinimalItemFrames pins the element-count guard to the smallest item
// the format has (a one-byte node and a one-byte reading): a guard that
// demands more bytes per item refuses these valid frames.
func TestMinimalItemFrames(t *testing.T) {
	s := New(16)
	for node := 0; node < 16; node++ {
		s.Add(9, 0, node, 0) // the reading 0 is one varint byte
	}
	enc := s.AppendWire(nil)
	if want := 1 + 1 + 2*16; len(enc) != want {
		t.Fatalf("16 minimal items encode to %d bytes, want %d", len(enc), want)
	}
	got, err := DecodeWire(enc, 9, 16)
	if err != nil {
		t.Fatalf("minimal-item frame rejected: %v", err)
	}
	if !sameSample(got, s) {
		t.Fatal("minimal-item frame decoded differently")
	}
}

// TestRankMemoMatchesHash: the memoized decode is the hashing decode, for
// node ids inside and outside the table, across epoch and seed changes, and
// from concurrent decoders sharing one memo.
func TestRankMemoMatchesHash(t *testing.T) {
	memo := NewRankMemo(30) // nodes 30..59 fall outside the table
	for _, seed := range []uint64{1, 2} {
		for epoch := 0; epoch < 3; epoch++ {
			s := sampleOf(seed, epoch, 12, 60)
			enc := s.AppendWire(nil)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := New(12)
					r := wire.NewReader(enc)
					if err := ReadWireInto(r, seed, memo, dst); err != nil || r.Finish() != nil {
						t.Errorf("seed %d epoch %d: memoized decode failed: %v", seed, epoch, err)
						return
					}
					if !sameSample(dst, s) {
						t.Errorf("seed %d epoch %d: memoized decode differs", seed, epoch)
					}
				}()
			}
			wg.Wait()
		}
	}
}

func TestMergeAndCopyRankEpochs(t *testing.T) {
	a, b := sampleOf(1, 3, 8, 20), sampleOf(1, 4, 8, 20)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: mixing rank epochs did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Merge", func() { a.Clone().Merge(b) })
	mustPanic("Add", func() { a.Clone().Add(1, 4, 99, 1) })
	// An empty sample takes the epoch of what it merges or copies; merging
	// an empty sample changes nothing.
	e := New(8)
	e.Merge(a)
	e.Merge(New(8))
	if !sameSample(e, a) {
		t.Fatal("merge into an empty sample lost the rank epoch or items")
	}
	c := b.Clone()
	c.CopyFrom(a)
	if !sameSample(c, a) {
		t.Fatal("CopyFrom did not carry the rank epoch")
	}
	c.Reset()
	c.Merge(b)
	if !sameSample(c, b) {
		t.Fatal("a reset sample did not take the merged rank epoch")
	}
}

func FuzzDecodeWire(f *testing.F) {
	f.Add(sampleOf(1, 0, 4, 2).AppendWire(nil), uint64(1), 4)
	f.Add(sampleOf(2, 9, 8, 40).AppendWire(nil), uint64(2), 8)
	f.Add(New(3).AppendWire(nil), uint64(1), 3)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, k int) {
		if k <= 0 || k > 1<<16 {
			return
		}
		got, err := DecodeWire(data, seed, k)
		if err != nil {
			return
		}
		// The codec is canonical: what decodes re-encodes to the input.
		enc := got.AppendWire(nil)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x re-encodes to %x", data, enc)
		}
		again, err := DecodeWire(enc, seed, k)
		if err != nil || !sameSample(again, got) {
			t.Fatalf("re-decode changed the sample (%v)", err)
		}
	})
}

func TestInsertRankOrderProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%60 + 1
		s := New(7)
		src := xrand.NewSource(seed)
		for i := 0; i < nodes; i++ {
			s.Add(seed, 0, src.Intn(1000), src.Float64())
		}
		items := s.Items()
		for i := 1; i < len(items); i++ {
			if items[i-1].Rank >= items[i].Rank {
				return false
			}
		}
		return len(items) <= 7
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
