package freq

import (
	"bytes"
	"math"
	"testing"

	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// buildSummary produces a realistic mid-tree summary: merged children and a
// gradient decrement, so Eps and the credit are non-trivial floats.
func buildSummary(seed uint64) *Summary {
	src := xrand.NewSource(seed)
	z := xrand.NewZipf(src, 200, 1.2)
	mk := func() *Summary {
		items := make([]Item, 120)
		for i := range items {
			items[i] = Item(z.Draw())
		}
		s := NewLocalSummary(items)
		s.Finalize(0.004)
		return s
	}
	s := mk()
	s.Merge(mk())
	s.Merge(mk())
	s.Finalize(0.009)
	return s
}

// bitsEq compares floats by bit pattern so NaNs (reachable via fuzzed
// input) compare equal to themselves.
func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func summariesEqual(a, b *Summary) bool {
	if a.N != b.N || !bitsEq(a.Eps, b.Eps) || !bitsEq(a.credit, b.credit) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for u, v := range a.Counts {
		if bv, ok := b.Counts[u]; !ok || !bitsEq(bv, v) {
			return false
		}
	}
	return true
}

func TestSummaryWireRoundTrip(t *testing.T) {
	for _, s := range []*Summary{
		NewLocalSummary(nil),
		NewLocalSummary([]Item{1, 1, 2, 9}),
		buildSummary(5),
	} {
		got, err := DecodeWireSummary(s.AppendWire(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !summariesEqual(s, got) {
			t.Fatalf("summary round trip changed the value: %+v vs %+v", s, got)
		}
	}
}

func TestSummaryWireCanonical(t *testing.T) {
	// Identical summaries built in different insertion orders encode to
	// identical bytes (items are sorted on the wire).
	a := NewLocalSummary([]Item{3, 1, 2})
	b := NewLocalSummary([]Item{2, 3, 1})
	if string(a.AppendWire(nil)) != string(b.AppendWire(nil)) {
		t.Fatal("encoding depends on map iteration order")
	}
}

func TestSummaryWordsDerivedFromEncoding(t *testing.T) {
	s := buildSummary(6)
	if want := wire.Words(len(s.AppendWire(nil))); s.Words() != want {
		t.Fatalf("Words() = %d, want encoded length %d", s.Words(), want)
	}
	if s.Counters() != len(s.Counts) {
		t.Fatal("Counters mismatch")
	}
}

func buildSynopsis(seed uint64, p Params) *Synopsis {
	src := xrand.NewSource(seed)
	z := xrand.NewZipf(src, 150, 1.1)
	all := NewSynopsis()
	for owner := 1; owner <= 12; owner++ {
		items := make([]Item, 90)
		for i := range items {
			items[i] = Item(z.Draw())
		}
		all.Fuse(Generate(items, 0, owner, p), p)
	}
	return all
}

func synopsesEqual(a, b *Synopsis, p Params) bool {
	// The canonical wire form is a faithful fingerprint of the value.
	return string(a.AppendWire(nil, p)) == string(b.AppendWire(nil, p))
}

func TestSynopsisWireRoundTrip(t *testing.T) {
	p := DefaultParams(7, 0.01, math.Log2(12*90)+1)
	for _, s := range []*Synopsis{
		NewSynopsis(),
		Generate([]Item{1, 1, 1, 2}, 3, 4, p),
		buildSynopsis(8, p),
	} {
		enc := s.AppendWire(nil, p)
		got, err := DecodeWireSynopsis(enc, p)
		if err != nil {
			t.Fatal(err)
		}
		if !synopsesEqual(s, got, p) {
			t.Fatal("synopsis round trip changed the value")
		}
		if len(got.ByClass) != len(s.ByClass) {
			t.Fatalf("class count %d != %d", len(got.ByClass), len(s.ByClass))
		}
		// Evaluation must agree exactly.
		wantEst, wantN := s.Evaluate(p)
		gotEst, gotN := got.Evaluate(p)
		if wantN != gotN || len(wantEst) != len(gotEst) {
			t.Fatal("evaluation diverged after round trip")
		}
		for u, v := range wantEst {
			if gotEst[u] != v {
				t.Fatalf("estimate for %d diverged: %v != %v", u, gotEst[u], v)
			}
		}
	}
}

func TestSynopsisWireRejectsTruncation(t *testing.T) {
	p := DefaultParams(9, 0.01, 10)
	enc := buildSynopsis(10, p).AppendWire(nil, p)
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeWireSynopsis(enc[:i], p); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := DecodeWireSynopsis(append(enc, 0), p); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestSynopsisWireMinimalFrames pins the element-count guards against the
// trimmed sketch sizes: a class is as small as three bytes (class, an empty
// ñ sketch, no items) and an item as small as two, so frames this short are
// valid — the guards once demanded a full 4-bytes-per-bitmap sketch per
// element and would have refused them.
func TestSynopsisWireMinimalFrames(t *testing.T) {
	p := DefaultParams(9, 0.01, 10)
	one := NewSynopsis()
	cs := one.getClass(2, p)
	one.ByClass[2] = cs
	cs.ItemSketches[7] = one.getItemSketch(p)
	enc := one.AppendWire(nil, p)
	if want := []byte{1, 2, 0, 1, 7, 0}; !bytes.Equal(enc, want) {
		t.Fatalf("one empty class with one empty item encodes to %v, want %v", enc, want)
	}
	for _, valid := range [][]byte{enc, {1, 2, 0, 0}, {2, 0, 0, 0, 5, 0, 0}} {
		got, err := DecodeWireSynopsis(valid, p)
		if err != nil {
			t.Fatalf("minimal synopsis %v rejected: %v", valid, err)
		}
		if !bytes.Equal(got.AppendWire(nil, p), valid) {
			t.Fatalf("minimal synopsis %v changed across a round trip", valid)
		}
	}
	// A small real synopsis sits far below the old per-class floor too.
	small := Generate([]Item{1, 1, 1, 2}, 3, 4, p).AppendWire(nil, p)
	if floor := 1 + 4*p.KTotal + 1; len(small) >= floor {
		t.Fatalf("small synopsis is %d bytes, expected under the old %d-byte class floor", len(small), floor)
	}
	if _, err := DecodeWireSynopsis(small, p); err != nil {
		t.Fatalf("small synopsis rejected: %v", err)
	}
}

// TestSynopsisWireRejectsNonCanonicalSketches drives malformed ñ and item
// sketches through the synopsis decoder, recycled and fresh.
func TestSynopsisWireRejectsNonCanonicalSketches(t *testing.T) {
	p := DefaultParams(9, 0.01, 10)
	recycled := buildSynopsis(10, p)
	decode := func(data []byte) error {
		_, err := DecodeWireSynopsis(data, p)
		if _, errInto := DecodeWireSynopsisInto(data, p, recycled); (err == nil) != (errInto == nil) {
			t.Errorf("DecodeWireSynopsis says %v, DecodeWireSynopsisInto says %v", err, errInto)
		}
		return err
	}
	zeros := func(w, k int) []byte { return append([]byte{byte(w)}, make([]byte, w*k)...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// One class (2) with one item (7); either sketch canonical-empty is fine.
	if err := decode([]byte{1, 2, 0, 1, 7, 0}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"non-minimal ñ sketch":    cat([]byte{1, 2}, zeros(1, p.KTotal), []byte{1, 7, 0}),
		"over-wide ñ sketch":      cat([]byte{1, 2}, zeros(5, p.KTotal), []byte{1, 7, 0}),
		"non-minimal item sketch": cat([]byte{1, 2, 0, 1, 7}, zeros(1, p.KItem)),
		"over-wide item sketch":   cat([]byte{1, 2, 0, 1, 7}, zeros(5, p.KItem)),
		"truncated item sketch":   {1, 2, 0, 1, 7, 2, 0xff},
		"trailing byte":           {1, 2, 0, 1, 7, 0, 0},
		"class count past input":  {2, 2, 0, 0},
		"item count past input":   {1, 2, 0, 2, 7, 0},
	} {
		if decode(bad) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func FuzzDecodeWireSummary(f *testing.F) {
	f.Add(buildSummary(11).AppendWire(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeWireSummary(data) // must never panic
		if err != nil {
			return
		}
		again, err := DecodeWireSummary(s.AppendWire(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !summariesEqual(s, again) {
			t.Fatal("cycle changed the summary")
		}
	})
}

func FuzzDecodeWireSynopsis(f *testing.F) {
	p := DefaultParams(12, 0.02, 12)
	f.Add(buildSynopsis(13, p).AppendWire(nil, p))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeWireSynopsis(data, p) // must never panic
		if err != nil {
			return
		}
		again, err := DecodeWireSynopsis(s.AppendWire(nil, p), p)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !synopsesEqual(s, again, p) {
			t.Fatal("cycle changed the synopsis")
		}
	})
}
