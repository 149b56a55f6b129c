package sketch

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// widthSketch returns a pseudo-random k-bitmap sketch whose widest bitmap
// needs exactly b bits (b in 0..32): random bits below b everywhere, and one
// bitmap — chosen by the seed, so odd tails and both halves of a packed word
// take the role — with bit b-1 set.
func widthSketch(seed uint64, k, b int) *Sketch {
	s := randomSketch(seed, k)
	mask := uint64(1)<<uint(b) - 1
	mask |= mask << BitmapBits
	for i := range s.words {
		s.words[i] &= mask
	}
	if b > 0 {
		s.setLevel(int(seed%uint64(k)), b-1)
	}
	return s
}

func TestWireRoundTripLossless(t *testing.T) {
	s := New(40)
	for owner := uint64(1); owner <= 30; owner++ {
		s.AddCount(7, owner, int64(owner)*37)
	}
	// ~17k units over 40 bitmaps: most bitmaps stop near bit 10, but the
	// simulated insertion of the largest counts reaches bit 15 in one.
	enc := s.AppendWire(nil)
	if want := 1 + 40*16/8; len(enc) != want || enc[0] != 16 {
		t.Fatalf("encoded %d bytes with header %d, want %d bytes at width 16", len(enc), enc[0], want)
	}
	got, err := DecodeWire(enc, 40)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < s.K(); m++ {
		if got.bitmap(m) != s.bitmap(m) {
			t.Fatalf("bitmap %d changed: %x != %x — wire codec must be lossless", m, got.bitmap(m), s.bitmap(m))
		}
	}
	if got.Estimate() != s.Estimate() {
		t.Fatal("estimate changed across the wire")
	}
}

// streamOffsets returns the k·b offsets of a k-bitmap, width-b bit stream in
// a seed-derived order whose first offset is bit b-1 of some bitmap, so
// every prefix of it is a sketch of width exactly b.
func streamOffsets(seed uint64, k, b int) []int {
	offs := xrand.NewSource(seed, uint64(k), uint64(b)).Perm(k * b)
	top := int(seed%uint64(k))*b + b - 1
	for i, o := range offs {
		if o == top {
			offs[0], offs[i] = offs[i], offs[0]
		}
	}
	return offs
}

// spreadOffsets is streamOffsets in an order whose early prefixes spread
// out: bit b-1 of bitmap 0, then every 129th offset after it — gaps that
// need two uvarint bytes — then the rest in ascending order.
func spreadOffsets(k, b int) []int {
	var offs, rest []int
	for o := 0; o < k*b; o++ {
		if o >= b-1 && (o-(b-1))%129 == 0 {
			offs = append(offs, o)
		} else {
			rest = append(rest, o)
		}
	}
	return append(offs, rest...)
}

// offsetSketch returns the k-bitmap sketch whose width-b stream has exactly
// the given offsets set.
func offsetSketch(k, b int, offs []int) *Sketch {
	s := New(k)
	for _, o := range offs {
		s.setLevel(o/b, o%b)
	}
	return s
}

// checkWire pins the codec on one sketch: the encoding is byte-identical to
// the bit-at-a-time reference (the shorter of the two forms, ties dense),
// never longer than the dense form 1+⌈k·b/8⌉, every decode entry point
// reconstructs the sketch bit for bit — identically to the raw
// 4-bytes-per-bitmap reference codec — and recycled decodes fully overwrite
// stale state. It returns the encoding.
func checkWire(t *testing.T, s *Sketch, name string) []byte {
	t.Helper()
	k := s.K()
	enc := s.AppendWire(nil)
	if ref := appendWireReference(nil, s); !bytes.Equal(enc, ref) {
		t.Fatalf("%s: AppendWire %x != bit-at-a-time reference %x", name, enc, ref)
	}
	b := int(enc[0] &^ sparseHeader)
	if dense := 1 + (k*b+7)/8; len(enc) > dense || len(enc) > WireBytes(k) {
		t.Fatalf("%s: %d bytes exceed the dense form's %d (ceiling %d)", name, len(enc), dense, WireBytes(k))
	}
	want := decodeWireRawReference(appendWireRawReference(nil, s), k)
	if !sketchEqual(want, s) {
		t.Fatal("raw reference codec is not lossless")
	}
	dec, err := DecodeWire(enc, k)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !sketchEqual(dec, want) {
		t.Fatalf("%s: DecodeWire differs from the raw reference decode", name)
	}
	dirty := randomSketch(uint64(len(enc))+99, k)
	if err := dirty.LoadWire(enc); err != nil {
		t.Fatalf("%s: LoadWire: %v", name, err)
	}
	if !sketchEqual(dirty, want) {
		t.Fatalf("%s: LoadWire left stale bits", name)
	}
	// Appended into a buffer whose spare capacity holds stale bytes: every
	// byte must be written, not assumed zero.
	stale := bytes.Repeat([]byte{0xFF}, 1+WireBytes(k))[:1]
	if got := s.AppendWire(stale); !bytes.Equal(got[1:], enc) {
		t.Fatalf("%s: stale capacity leaked into the encoding", name)
	}
	// Embedded between other fields, and appended after a prefix.
	msg := s.AppendWire([]byte{0xAA})
	msg = append(msg, 0xBB)
	r := wire.NewReader(msg)
	pre, emb, post := r.Byte(), ReadWire(r, k), r.Byte()
	if err := r.Finish(); err != nil || pre != 0xAA || post != 0xBB {
		t.Fatalf("%s: embedded read lost its place: %v", name, err)
	}
	if !sketchEqual(emb, want) {
		t.Fatalf("%s: embedded read changed the sketch", name)
	}
	recycled := randomSketch(uint64(len(enc))+7, k)
	r = wire.NewReader(msg[1:])
	ReadWireInto(r, recycled)
	if r.Byte() != 0xBB || r.Finish() != nil || !sketchEqual(recycled, want) {
		t.Fatalf("%s: ReadWireInto into a dirty sketch: %v", name, r.Err())
	}
	return enc
}

// TestWireWidths is the codec's round-trip property (checkWire) over every
// field width b = 0..32 and every packing shape (k = 1, odd, even,
// multi-word, more than 64 words), on random bit patterns — dense almost
// always — and on set-bit populations on both sides of the dense/sparse
// crossover, with short gaps and with two-byte ones.
func TestWireWidths(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 39, 40} {
		for b := 0; b <= BitmapBits; b++ {
			for seed := uint64(1); seed <= 20; seed++ {
				checkWire(t, widthSketch(seed, k, b), fmt.Sprintf("k=%d b=%d seed=%d", k, b, seed))
			}
		}
	}
	for _, k := range []int{1, 8, 40, 1000} {
		for b := 1; b <= BitmapBits; b++ {
			for order, offs := range [][]int{streamOffsets(uint64(k+b), k, b), spreadOffsets(k, b)} {
				// Adding a set bit never shortens the sparse form and leaves
				// the dense one alone, so the reference picks sparse for
				// populations below some crossover and dense from it on.
				cross := 1 + sort.Search(len(offs), func(i int) bool {
					s := offsetSketch(k, b, offs[:i+1])
					return len(appendWireSparseReference(nil, s, b)) >= len(appendWireBitsReference(nil, s, b))
				})
				for _, n := range []int{1, cross - 2, cross - 1, cross, cross + 1, len(offs)} {
					if n < 1 || n > len(offs) {
						continue
					}
					name := fmt.Sprintf("k=%d b=%d order %d n=%d (crossover %d)", k, b, order, n, cross)
					enc := checkWire(t, offsetSketch(k, b, offs[:n]), name)
					if sparse := enc[0]&sparseHeader != 0; sparse != (n < cross) {
						t.Fatalf("%s: header %#x", name, enc[0])
					}
				}
			}
		}
	}
}

func TestWireBytesIsMaximum(t *testing.T) {
	// A synopsis is no longer "exactly k words": WireBytes/WireWords are the
	// ceiling (header + k full 32-bit fields), reached only by a sketch with
	// bit 31 set in some bitmap; an empty sketch is the one header byte.
	for _, k := range []int{1, 8, 20, 40} {
		if WireBytes(k) != 1+4*k || WireWords(k) != k+1 {
			t.Fatalf("k=%d: bound %d bytes / %d words, want %d / %d", k, WireBytes(k), WireWords(k), 1+4*k, k+1)
		}
		if got := len(New(k).AppendWire(nil)); got != 1 {
			t.Fatalf("k=%d: empty sketch encodes to %d bytes, want 1", k, got)
		}
		if got := len(widthSketch(3, k, BitmapBits).AppendWire(nil)); got != WireBytes(k) {
			t.Fatalf("k=%d: full-width sketch encodes to %d bytes, want the bound %d", k, got, WireBytes(k))
		}
	}
}

func TestDecodeWireRejectsBadInput(t *testing.T) {
	const k = 7
	s := widthSketch(1, k, 5) // 35 field bits: one byte ends in 5 padding bits
	enc := s.AppendWire(nil)
	if _, err := DecodeWire(enc, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// k is context, not content: a wrong k is caught only when it changes
	// the body length (k+1 fields of 5 bits still fit the same five bytes).
	if _, err := DecodeWire(enc, k+2); err == nil {
		t.Fatal("wrong k accepted")
	}
	padded := append([]byte(nil), enc...)
	padded[len(padded)-1] |= 0x80
	for name, bad := range map[string][]byte{
		"empty input":       {},
		"truncation":        enc[:len(enc)-1],
		"trailing byte":     append(append([]byte(nil), enc...), 0),
		"header above 32":   append([]byte{33}, make([]byte, (33*k+7)/8)...),
		"header 255":        append([]byte{255}, make([]byte, 4*k)...),
		"non-minimal width": appendWireBitsReference(nil, s, 6),
		"full-width fields": appendWireBitsReference(nil, s, BitmapBits),
		"nonzero padding":   padded,
		// An empty sketch is the single byte 0 — never a run of zero fields.
		"zero fields": appendWireBitsReference(nil, New(k), 1),
	} {
		if _, err := DecodeWire(bad, k); err == nil {
			t.Errorf("DecodeWire accepted %s", name)
		} else if !errors.Is(err, wire.ErrMalformed) && !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("%s: error %v is neither ErrMalformed nor ErrTruncated", name, err)
		}
		if err := New(k).LoadWire(bad); err == nil {
			t.Errorf("LoadWire accepted %s", name)
		}
	}
}

// wireCase is an encoding of a k-bitmap sketch.
type wireCase struct {
	name string
	k    int
	data []byte
}

// sparseRejects breaks each canonical rule of the sparse form once, around
// the 7-bitmap sketch whose one set bit is bit 4 of bitmap 6 — stream offset
// 34 of 35 at width 5, canonically the 3 bytes 45 01 22 against a 6-byte
// dense form.
func sparseRejects() []wireCase {
	one := New(7)
	one.setLevel(6, 4)
	u64max := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	return []wireCase{
		{"no set bits", 7, []byte{0x45, 0}},
		{"offset at k·b", 7, []byte{0x45, 2, 4, 30}},    // offsets 4 and 35
		{"offset past k·b", 7, []byte{0x45, 2, 4, 31}},  // offsets 4 and 36
		{"first offset at k·b", 7, []byte{0x45, 1, 35}}, // width 1 besides
		{"gap of 2^64-1", 7, append([]byte{0x45, 2, 0}, u64max...)},
		{"non-minimal count", 7, []byte{0x45, 0x81, 0x00, 34}},
		{"non-minimal gap", 7, []byte{0x45, 1, 0xa2, 0x00}},
		{"non-minimal width", 7, appendWireSparseReference(nil, one, 6)},
		{"sparse as long as dense", 16, []byte{0x41, 1, 0}},
		{"sparse longer than dense", 7, []byte{0x41, 1, 0}},
		{"dense longer than sparse", 7, appendWireBitsReference(nil, one, 5)},
		{"empty", 7, []byte{}},
		{"truncated count", 7, []byte{0x45}},
		{"truncated gaps", 7, []byte{0x45, 2, 0}},
		{"truncated gap", 7, []byte{0x45, 1, 0xa2}},
		{"trailing byte", 7, []byte{0x45, 1, 34, 0}},
		{"header 0x40", 7, []byte{0x40, 1, 0}},
		{"header 0x61", 7, []byte{0x61, 1, 0}},
		{"header 0xc5", 7, []byte{0xc5, 1, 34}},
	}
}

// TestDecodeWireRejectsNonCanonicalSparse pins the sparse form's canonical
// rules: every entry of sparseRejects is refused by both decoders, as
// malformed or truncated, while the canonical spellings next to them —
// including a tie, which goes to the dense form, and a two-byte gap — are
// accepted.
func TestDecodeWireRejectsNonCanonicalSparse(t *testing.T) {
	for _, tc := range sparseRejects() {
		if _, err := DecodeWire(tc.data, tc.k); err == nil {
			t.Errorf("DecodeWire accepted %s", tc.name)
		} else if !errors.Is(err, wire.ErrMalformed) && !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("%s: error %v is neither ErrMalformed nor ErrTruncated", tc.name, err)
		}
		if err := New(tc.k).LoadWire(tc.data); err == nil {
			t.Errorf("LoadWire accepted %s", tc.name)
		}
	}
	for _, tc := range []wireCase{
		{"one set bit", 7, []byte{0x45, 1, 34}},
		{"dense tie", 16, []byte{0x01, 0x01, 0x00}},
		{"two-byte gap", 40, []byte{0x45, 2, 4, 0x91, 0x01}}, // offsets 4 and 150
	} {
		s, err := DecodeWire(tc.data, tc.k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := s.AppendWire(nil); !bytes.Equal(got, tc.data) {
			t.Fatalf("%s: re-encodes to %x", tc.name, got)
		}
	}
}

func TestReadWireEmbedded(t *testing.T) {
	a, b := New(4), New(4)
	a.Insert(1, 2)
	b.Insert(3, 4)
	buf := a.AppendWire(nil)
	buf = b.AppendWire(buf)
	r := wire.NewReader(buf)
	ga, gb := ReadWire(r, 4), ReadWire(r, 4)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !sketchEqual(ga, a) {
		t.Fatal("first embedded sketch wrong")
	}
	if !sketchEqual(gb, b) {
		t.Fatal("second embedded sketch wrong")
	}
	// Underflow sets the reader error: the input ends one byte short of the
	// first sketch.
	r2 := wire.NewReader(buf[:len(a.AppendWire(nil))-1])
	ReadWire(r2, 4)
	if r2.Err() == nil {
		t.Fatal("underflow not reported")
	}
	// So does a non-canonical sketch (width 1, all fields zero), and the
	// first error sticks.
	r3 := wire.NewReader([]byte{1, 0, 0})
	ReadWire(r3, 4)
	ReadWire(r3, 4)
	if !errors.Is(r3.Err(), wire.ErrMalformed) {
		t.Fatalf("non-minimal embedded sketch: reader error %v, want ErrMalformed", r3.Err())
	}
}

func FuzzDecodeWireSketch(f *testing.F) {
	f.Add(New(8).AppendWire(nil), 8)
	f.Add([]byte{0x45, 1, 34}, 7)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if k <= 0 || k > 1<<12 {
			return
		}
		s, err := DecodeWire(data, k)
		if err != nil {
			return
		}
		// The codec is canonical: re-encoding must reproduce the input.
		if string(s.AppendWire(nil)) != string(data) {
			t.Fatal("sketch wire codec is not bijective")
		}
	})
}

// FuzzSketchLoadWire throws arbitrary bytes at the recycling decoder: it must
// never panic, must agree with DecodeWire on what it accepts, and everything
// it accepts must re-encode to the same bytes (the canonical-form contract)
// whatever state the recycled sketch was in.
func FuzzSketchLoadWire(f *testing.F) {
	for _, b := range []int{0, 1, 3, 6, 8, 13, 31, 32} {
		f.Add(widthSketch(5, 8, b).AppendWire(nil), 8)
		f.Add(widthSketch(6, 5, b).AppendWire(nil), 5)
	}
	// Sparse encodings: a few set bits at k = 8 and 40, widths 1 to 32.
	for _, k := range []int{8, 40} {
		for _, b := range []int{1, 4, 9, 32} {
			for _, n := range []int{1, 3, 7} {
				f.Add(offsetSketch(k, b, streamOffsets(uint64(n), k, b)[:n]).AppendWire(nil), k)
			}
		}
	}
	for _, tc := range sparseRejects() {
		f.Add(tc.data, tc.k)
	}
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if k <= 0 || k > 1<<10 {
			return
		}
		s := randomSketch(uint64(len(data)), k)
		err := s.LoadWire(data)
		dec, decErr := DecodeWire(data, k)
		if (err == nil) != (decErr == nil) {
			t.Fatalf("LoadWire error %v but DecodeWire error %v", err, decErr)
		}
		if err != nil {
			return
		}
		if !sketchEqual(s, dec) {
			t.Fatal("LoadWire and DecodeWire reconstruct different sketches")
		}
		if !bytes.Equal(s.AppendWire(nil), data) {
			t.Fatal("accepted input does not re-encode to itself")
		}
	})
}

// BenchmarkWireRoundTrip is AppendWire+LoadWire of a 40-bitmap sketch at
// the widths a few hundred sensors produce (6, 8 bits), a large Sum's (12)
// and full width.
func BenchmarkWireRoundTrip(b *testing.B) {
	for _, bw := range []int{6, 8, 12, 32} {
		b.Run(fmt.Sprintf("b%d", bw), func(b *testing.B) {
			s, dst := widthSketch(1, 40, bw), New(40)
			buf := make([]byte, 0, WireBytes(40))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = s.AppendWire(buf[:0])
				if err := dst.LoadWire(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireMixed is the codec on the sketches a 600-sensor field actually
// ships: K = 40, widths from 1 to about 10 bits, 8192 of them in random order
// so the branch predictor cannot learn one width's pattern. Per sketch.
func BenchmarkWireMixed(b *testing.B) {
	const n = 8192
	src := xrand.NewSource(99)
	sks := make([]*Sketch, n)
	encs := make([][]byte, len(sks))
	for i := range sks {
		items := uint64(src.Intn(300) + 1)
		if i%3 == 0 {
			items = uint64(src.Intn(8) + 1)
		}
		sks[i] = New(40)
		for j := uint64(0); j < items; j++ {
			sks[i].Insert(uint64(i), j)
		}
		encs[i] = sks[i].AppendWire(nil)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, WireBytes(40))
		for i := 0; i < b.N; i++ {
			buf = sks[i%n].AppendWire(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		dst := New(40)
		for i := 0; i < b.N; i++ {
			if err := dst.LoadWire(encs[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
