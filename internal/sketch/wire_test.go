package sketch

import (
	"bytes"
	"errors"
	"testing"

	"tributarydelta/internal/wire"
)

// widthSketch returns a pseudo-random k-bitmap sketch whose widest bitmap
// needs exactly w bytes (w in 0..4): random bits below 8w everywhere, and one
// bitmap — chosen by the seed, so odd tails and both halves of a packed word
// take the role — with a bit in its top byte.
func widthSketch(seed uint64, k, w int) *Sketch {
	s := randomSketch(seed, k)
	mask := uint64(1)<<(8*uint(w)) - 1
	mask |= mask << BitmapBits
	for i := range s.words {
		s.words[i] &= mask
	}
	if w > 0 {
		s.setLevel(int(seed%uint64(k)), 8*w-1-int(seed%8))
	}
	return s
}

func TestWireRoundTripLossless(t *testing.T) {
	s := New(40)
	for owner := uint64(1); owner <= 30; owner++ {
		s.AddCount(7, owner, int64(owner)*37)
	}
	// ~17k units over 40 bitmaps: bits reach position 8 or so, never 16.
	enc := s.AppendWire(nil)
	if want := 1 + 2*40; len(enc) != want || enc[0] != 2 {
		t.Fatalf("encoded %d bytes with header %d, want %d bytes at width 2", len(enc), enc[0], want)
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

// TestWireWidths is the codec's round-trip property over all five widths and
// every packing shape (k = 1, odd, even): the encoding is exactly 1+w·k
// bytes, every decode entry point reconstructs the sketch bit for bit —
// identically to the raw 4-bytes-per-bitmap reference codec — and recycled
// decodes fully overwrite stale state.
func TestWireWidths(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 39, 40} {
		for w := 0; w <= maxWidth; w++ {
			for seed := uint64(1); seed <= 20; seed++ {
				s := widthSketch(seed, k, w)
				enc := s.AppendWire(nil)
				if len(enc) != 1+w*k || int(enc[0]) != w {
					t.Fatalf("k=%d w=%d: %d bytes with header %d, want %d bytes", k, w, len(enc), enc[0], 1+w*k)
				}
				if len(enc) > WireBytes(k) {
					t.Fatalf("k=%d w=%d: %d bytes exceed the WireBytes bound %d", k, w, len(enc), WireBytes(k))
				}
				want := decodeWireRawReference(appendWireRawReference(nil, s), k)
				if !sketchEqual(want, s) {
					t.Fatal("raw reference codec is not lossless")
				}
				dec, err := DecodeWire(enc, k)
				if err != nil {
					t.Fatalf("k=%d w=%d: %v", k, w, err)
				}
				if !sketchEqual(dec, want) {
					t.Fatalf("k=%d w=%d seed=%d: DecodeWire differs from the raw reference decode", k, w, seed)
				}
				dirty := randomSketch(seed+99, k)
				if err := dirty.LoadWire(enc); err != nil {
					t.Fatalf("k=%d w=%d: LoadWire: %v", k, w, err)
				}
				if !sketchEqual(dirty, want) {
					t.Fatalf("k=%d w=%d seed=%d: LoadWire left stale bits", k, w, seed)
				}
				// Embedded between other fields, and appended after a prefix.
				msg := s.AppendWire([]byte{0xAA})
				msg = append(msg, 0xBB)
				r := wire.NewReader(msg)
				pre, emb, post := r.Byte(), ReadWire(r, k), r.Byte()
				if err := r.Finish(); err != nil || pre != 0xAA || post != 0xBB {
					t.Fatalf("k=%d w=%d: embedded read lost its place: %v", k, w, err)
				}
				if !sketchEqual(emb, want) {
					t.Fatalf("k=%d w=%d: embedded read changed the sketch", k, w)
				}
			}
		}
	}
}

func TestWireBytesIsMaximum(t *testing.T) {
	// A synopsis is no longer "exactly k words": WireBytes/WireWords are the
	// ceiling (header + k full-width fields), reached only by a sketch with a
	// bit in some top byte; an empty sketch is the one header byte.
	for _, k := range []int{1, 8, 20, 40} {
		if WireBytes(k) != 1+4*k || WireWords(k) != k+1 {
			t.Fatalf("k=%d: bound %d bytes / %d words, want %d / %d", k, WireBytes(k), WireWords(k), 1+4*k, k+1)
		}
		if got := len(New(k).AppendWire(nil)); got != 1 {
			t.Fatalf("k=%d: empty sketch encodes to %d bytes, want 1", k, got)
		}
		if got := len(widthSketch(3, k, maxWidth).AppendWire(nil)); got != WireBytes(k) {
			t.Fatalf("k=%d: full-width sketch encodes to %d bytes, want the bound %d", k, got, WireBytes(k))
		}
	}
}

func TestDecodeWireRejectsBadInput(t *testing.T) {
	const k = 8
	enc := widthSketch(1, k, 2).AppendWire(nil)
	if _, err := DecodeWire(enc, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := DecodeWire(enc, k+1); err == nil {
		t.Fatal("wrong k accepted")
	}
	// Non-minimal width: the same bitmaps in 3-byte fields.
	wide := []byte{3}
	for m := 0; m < k; m++ {
		wide = append(wide, enc[1+2*m], enc[2+2*m], 0)
	}
	// An empty sketch is the single byte 0 — never a run of zero fields.
	zeros := append([]byte{1}, make([]byte, k)...)
	for name, bad := range map[string][]byte{
		"empty input":       {},
		"truncation":        enc[:len(enc)-1],
		"trailing byte":     append(append([]byte(nil), enc...), 0),
		"header above 4":    append([]byte{5}, make([]byte, 5*k)...),
		"non-minimal width": wide,
		"zero fields":       zeros,
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
	// Underflow sets the reader error.
	r2 := wire.NewReader(buf[:3])
	ReadWire(r2, 4)
	if r2.Err() == nil {
		t.Fatal("underflow not reported")
	}
	// So does a non-canonical sketch, and the first error sticks.
	r3 := wire.NewReader([]byte{1, 0, 0, 0, 0, 0})
	ReadWire(r3, 4)
	ReadWire(r3, 4)
	if !errors.Is(r3.Err(), wire.ErrMalformed) {
		t.Fatalf("non-minimal embedded sketch: reader error %v, want ErrMalformed", r3.Err())
	}
}

func FuzzDecodeWireSketch(f *testing.F) {
	f.Add(New(8).AppendWire(nil), 8)
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
	for w := 0; w <= maxWidth; w++ {
		f.Add(widthSketch(5, 8, w).AppendWire(nil), 8)
		f.Add(widthSketch(6, 5, w).AppendWire(nil), 5)
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

// BenchmarkWireRoundTrip is AppendWire+LoadWire of a 40-bitmap sketch at the
// width a few hundred sensors produce (2) and at full width.
func BenchmarkWireRoundTrip(b *testing.B) {
	for _, w := range []int{2, 3, 4} {
		b.Run(string(rune('0'+w)), func(b *testing.B) {
			s, dst := widthSketch(1, 40, w), New(40)
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
