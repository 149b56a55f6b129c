package freq

import (
	"fmt"
	"sort"

	"tributarydelta/internal/sketch"
	"tributarydelta/internal/wire"
)

// Wire codecs for the frequent items structures. Both encodings are
// canonical — items and classes are sorted — so identical values always
// produce identical bytes, and both are lossless: the ε-deficient summary's
// estimates, error state and decrement credit all round-trip exactly, which
// is what lets the runner transmit real bytes without perturbing Algorithm
// 1's arithmetic.

// sortedItems returns m's keys ascending.
func sortedItems[V any](m map[Item]V) []Item {
	out := make([]Item, 0, len(m))
	//lint:ignore determinism key collection; sorted immediately below — this helper IS the sorted-iteration discipline
	for u := range m {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AppendWire appends the wire encoding of the summary to dst: N, ε, the
// upstream decrement credit, then the (item, estimate) pairs in item order
// with delta-encoded item ids.
func (s *Summary) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(s.N))
	dst = wire.AppendFloat64(dst, s.Eps)
	dst = wire.AppendFloat64(dst, s.credit)
	items := sortedItems(s.Counts)
	dst = wire.AppendUvarint(dst, uint64(len(items)))
	prev := Item(0)
	for _, u := range items {
		dst = wire.AppendUvarint(dst, uint64(u-prev))
		dst = wire.AppendFloat64(dst, s.Counts[u])
		prev = u
	}
	return dst
}

// DecodeWireSummary parses a summary encoded by AppendWire.
func DecodeWireSummary(data []byte) (*Summary, error) {
	r := wire.NewReader(data)
	s := &Summary{
		N:      int64(r.Uvarint()),
		Eps:    r.Float64(),
		credit: r.Float64(),
	}
	n := r.Count(2) // item delta + estimate, >= 1 byte each
	s.Counts = make(map[Item]float64, n)
	prev := Item(0)
	for i := 0; i < n; i++ {
		u := prev + Item(r.Uvarint())
		if r.Err() == nil && i > 0 && u <= prev { // duplicate or delta overflow
			return nil, fmt.Errorf("freq: items out of order in summary: %w", wire.ErrMalformed)
		}
		s.Counts[u] = r.Float64()
		prev = u
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if s.N < 0 {
		return nil, fmt.Errorf("freq: negative N: %w", wire.ErrMalformed)
	}
	return s, nil
}

// AppendWire appends the wire encoding of the multi-path synopsis to dst:
// the class synopses in class order, each carrying its class, the ñ sketch
// (KTotal bitmaps) and the per-item ⊕-count sketches (KItem bitmaps) in
// item order. Every sketch delimits itself; bitmap counts come from the
// deployment-wide Params, not the message.
func (s *Synopsis) AppendWire(dst []byte, p Params) []byte {
	classes := make([]int, 0, len(s.ByClass))
	//lint:ignore determinism key collection; sorted immediately below so the wire encoding is canonical
	for c := range s.ByClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	dst = wire.AppendUvarint(dst, uint64(len(classes)))
	for _, c := range classes {
		cs := s.ByClass[c]
		dst = wire.AppendUvarint(dst, uint64(c))
		dst = cs.NTotal.AppendWire(dst)
		items := sortedItems(cs.ItemSketches)
		dst = wire.AppendUvarint(dst, uint64(len(items)))
		prev := Item(0)
		for _, u := range items {
			dst = wire.AppendUvarint(dst, uint64(u-prev))
			dst = cs.ItemSketches[u].AppendWire(dst)
			prev = u
		}
	}
	return dst
}

// DecodeWireSynopsis parses a synopsis encoded by AppendWire under the same
// Params.
func DecodeWireSynopsis(data []byte, p Params) (*Synopsis, error) {
	return DecodeWireSynopsisInto(data, p, NewSynopsis())
}

// DecodeWireSynopsisInto is DecodeWireSynopsis decoding into a recycled
// synopsis: out is fully overwritten, drawing class and item storage from
// its freelists (out's contents are unspecified after an error).
func DecodeWireSynopsisInto(data []byte, p Params, out *Synopsis) (*Synopsis, error) {
	if p.KItem <= 0 || p.KTotal <= 0 {
		return nil, fmt.Errorf("freq: decode with non-positive sketch sizes (KItem=%d KTotal=%d)", p.KItem, p.KTotal)
	}
	r := wire.NewReader(data)
	out.Reset()
	nClasses := r.Count(3) // class + ñ sketch + item count, >= 1 byte each
	prevClass := -1
	for i := 0; i < nClasses; i++ {
		c := int(r.Uvarint())
		if r.Err() == nil && c <= prevClass {
			return nil, fmt.Errorf("freq: classes out of order: %w", wire.ErrMalformed)
		}
		prevClass = c
		cs := out.getClass(c, p)
		// The in-flight class goes into ByClass before any early return, so
		// a malformed frame never strands it (or its item sketches) outside
		// both the synopsis and the freelists — the next Reset reclaims it.
		out.ByClass[c] = cs
		sketch.ReadWireInto(r, cs.NTotal)
		nItems := r.Count(2) // item delta + sketch, >= 1 byte each
		prev := Item(0)
		for j := 0; j < nItems; j++ {
			u := prev + Item(r.Uvarint())
			if r.Err() == nil && j > 0 && u <= prev { // duplicate or delta overflow
				return nil, fmt.Errorf("freq: items out of order in class %d: %w", c, wire.ErrMalformed)
			}
			sk := out.getItemSketch(p)
			cs.ItemSketches[u] = sk
			sketch.ReadWireInto(r, sk)
			prev = u
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}
