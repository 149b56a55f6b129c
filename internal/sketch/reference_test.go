package sketch

import (
	"bytes"
	"encoding/binary"
	"testing"

	"tributarydelta/internal/xrand"
)

// The historical bit-at-a-time compact codec, kept verbatim as the reference
// the word-level EncodeCompactInto/DecodeCompactInto implementations are
// differentially tested against: the 64-bit-accumulator packers must emit
// byte-identical streams and reconstruct bit-identical sketches.

// bitWriter packs values MSB-first into a byte slice.
type bitWriter struct {
	buf []byte
	n   int // bits written
}

func newBitWriter(capacityBits int) *bitWriter {
	return &bitWriter{buf: make([]byte, 0, (capacityBits+7)/8)}
}

func (w *bitWriter) write(v uint32, width int) {
	for i := width - 1; i >= 0; i-- {
		if w.n%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		bit := (v >> uint(i)) & 1
		w.buf[w.n/8] |= byte(bit) << uint(7-w.n%8)
		w.n++
	}
}

func (w *bitWriter) bytes() []byte { return w.buf }

type bitReader struct {
	buf []byte
	n   int
}

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

func (r *bitReader) read(width int) uint32 {
	var v uint32
	for i := 0; i < width; i++ {
		var bit byte
		if r.n/8 < len(r.buf) {
			bit = (r.buf[r.n/8] >> uint(7-r.n%8)) & 1
		}
		v = v<<1 | uint32(bit)
		r.n++
	}
	return v
}

// encodeCompactReference is the pre-word-level EncodeCompact.
func encodeCompactReference(s *Sketch) []byte {
	w := newBitWriter(EncodedBits(s.K()))
	for m := 0; m < s.K(); m++ {
		r := s.lowestZero(m)
		if r > (1<<runBits)-1 {
			r = (1 << runBits) - 1
		}
		w.write(uint32(r), runBits)
		var fringe uint32
		if r < BitmapBits {
			fringe = (s.bitmap(m) >> uint(r+1)) & ((1 << fringeBits) - 1)
		}
		w.write(fringe, fringeBits)
	}
	return w.bytes()
}

// decodeCompactReference is the pre-word-level DecodeCompact.
func decodeCompactReference(data []byte, k int) (*Sketch, error) {
	need := (EncodedBits(k) + 7) / 8
	if len(data) < need {
		return nil, errTruncatedRef
	}
	r := newBitReader(data)
	s := New(k)
	for m := 0; m < k; m++ {
		run := int(r.read(runBits))
		fringe := r.read(fringeBits)
		var bm uint32
		if run >= BitmapBits {
			bm = ^uint32(0)
		} else {
			bm = (1 << uint(run)) - 1
			bm |= fringe << uint(run+1)
		}
		if m&1 == 0 {
			s.words[m>>1] = uint64(bm)
		} else {
			s.words[m>>1] |= uint64(bm) << BitmapBits
		}
	}
	return s, nil
}

// appendWireRawReference and decodeWireRawReference are the pre-trimming wire
// codec — every bitmap a fixed little-endian 32-bit word, 4K bytes — kept as
// the reference the bit-packed AppendWire/LoadWire are differentially tested
// against: both must reconstruct the identical sketch.
func appendWireRawReference(dst []byte, s *Sketch) []byte {
	for m := 0; m < s.K(); m++ {
		dst = binary.LittleEndian.AppendUint32(dst, s.bitmap(m))
	}
	return dst
}

func decodeWireRawReference(data []byte, k int) *Sketch {
	s := New(k)
	for m := 0; m < k; m++ {
		s.words[m>>1] |= uint64(binary.LittleEndian.Uint32(data[4*m:])) << (uint(m&1) * BitmapBits)
	}
	return s
}

// appendWireBitsReference is the bit-packed wire encoding written one bit at
// a time with an explicit field width b: the header byte, then every bitmap's
// low b bits LSB-first into a zero-padded byte stream. With b the minimal
// width it must equal AppendWire byte for byte; with a wider b it builds the
// non-canonical encodings the decoder has to refuse.
func appendWireBitsReference(dst []byte, s *Sketch, b int) []byte {
	dst = append(dst, byte(b))
	body := make([]byte, (s.K()*b+7)/8)
	pos := 0
	for m := 0; m < s.K(); m++ {
		for i := 0; i < b; i++ {
			if s.bitmap(m)>>uint(i)&1 == 1 {
				body[pos/8] |= 1 << uint(pos%8)
			}
			pos++
		}
	}
	return append(dst, body...)
}

type refError string

func (e refError) Error() string { return string(e) }

const errTruncatedRef = refError("sketch: compact encoding truncated")

// randomSketch fills a sketch of k bitmaps with a deterministic pseudo-random
// bit pattern derived from seed — arbitrary bitmaps, not just reachable ones,
// so the codecs are compared over the whole 32k-bit input space.
func randomSketch(seed uint64, k int) *Sketch {
	s := New(k)
	src := xrand.NewSource(seed, uint64(k))
	for m := 0; m < k; m++ {
		bm := uint32(src.Uint64())
		if m&1 == 0 {
			s.words[m>>1] = uint64(bm)
		} else {
			s.words[m>>1] |= uint64(bm) << BitmapBits
		}
	}
	return s
}

func sketchEqual(a, b *Sketch) bool {
	if a.k != b.k {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// TestCompactCodecMatchesReference is the differential pin: across bitmap
// counts (odd and even, partial final bytes and whole) and many random
// sketches, the word-level encoder is byte-identical to the bit-at-a-time
// reference and the word-level decoder reconstructs the identical sketch.
func TestCompactCodecMatchesReference(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 8, 15, 16, 39, 40, 63} {
		for seed := uint64(1); seed <= 50; seed++ {
			s := randomSketch(seed, k)
			want := encodeCompactReference(s)
			got := s.EncodeCompactInto(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("k=%d seed=%d: word-level encoding %x != reference %x", k, seed, got, want)
			}
			if enc := s.EncodeCompact(); !bytes.Equal(enc, want) {
				t.Fatalf("k=%d seed=%d: EncodeCompact diverged from reference", k, seed)
			}
			refDec, err := decodeCompactReference(want, k)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeCompact(got, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sketchEqual(dec, refDec) {
				t.Fatalf("k=%d seed=%d: word-level decode differs from reference decode", k, seed)
			}
		}
	}
}

// TestDecodeCompactIntoOverwrites pins that the recycling decode fully
// overwrites stale state, including the unused high half of an odd-k
// sketch's final word.
func TestDecodeCompactIntoOverwrites(t *testing.T) {
	for _, k := range []int{3, 5, 40} {
		src := randomSketch(7, k)
		enc := src.EncodeCompactInto(nil)
		dst := randomSketch(1234, k) // stale garbage
		if err := dst.DecodeCompactInto(enc); err != nil {
			t.Fatal(err)
		}
		want, err := decodeCompactReference(enc, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sketchEqual(dst, want) {
			t.Fatalf("k=%d: DecodeCompactInto left stale bits", k)
		}
	}
}

// FuzzCompactCodecDifferential fuzzes raw word material into sketches and
// checks encoder/decoder equivalence with the reference implementation.
func FuzzCompactCodecDifferential(f *testing.F) {
	f.Add(uint64(1), uint64(2), 40)
	f.Add(uint64(0), uint64(0), 1)
	f.Add(^uint64(0), ^uint64(0), 7)
	f.Fuzz(func(t *testing.T, w0, w1 uint64, k int) {
		if k <= 0 || k > 128 {
			return
		}
		s := New(k)
		for i := range s.words {
			if i&1 == 0 {
				s.words[i] = w0
			} else {
				s.words[i] = w1
			}
			w0, w1 = xrand.Mix64(w0), xrand.Mix64(w1)
		}
		if k&1 == 1 {
			s.words[len(s.words)-1] &= (1 << BitmapBits) - 1
		}
		want := encodeCompactReference(s)
		got := s.EncodeCompactInto(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding mismatch: %x != %x", got, want)
		}
		dec, err := DecodeCompact(got, k)
		if err != nil {
			t.Fatal(err)
		}
		refDec, err := decodeCompactReference(want, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sketchEqual(dec, refDec) {
			t.Fatal("decode mismatch against reference")
		}
	})
}

// FuzzDecodeCompactBytes feeds arbitrary byte streams to both decoders: they
// must agree on every input, including streams with trailing garbage and
// fringe patterns unreachable by any encoder.
func FuzzDecodeCompactBytes(f *testing.F) {
	f.Add([]byte{0xff, 0x01, 0x02}, 2)
	f.Add(make([]byte, 45), 40)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if k <= 0 || k > 128 {
			return
		}
		dec, err := DecodeCompact(data, k)
		refDec, refErr := decodeCompactReference(data, k)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("error mismatch: %v vs %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sketchEqual(dec, refDec) {
			t.Fatal("decode mismatch against reference")
		}
	})
}

var sinkB []byte

// BenchmarkEncodeCompactInto measures the word-level encoder on the paper's
// 40-bitmap configuration with a caller-owned buffer (the zero-allocation
// form).
func BenchmarkEncodeCompactInto(b *testing.B) {
	s := New(40)
	for i := uint64(0); i < 10000; i++ {
		s.Insert(1, i)
	}
	buf := make([]byte, 0, EncodedBytes(40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.EncodeCompactInto(buf[:0])
	}
	sinkB = buf
}

// BenchmarkDecodeCompact measures the word-level decoder (recycling form).
func BenchmarkDecodeCompact(b *testing.B) {
	s := New(40)
	for i := uint64(0); i < 10000; i++ {
		s.Insert(1, i)
	}
	enc := s.EncodeCompact()
	dst := New(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.DecodeCompactInto(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeCompactReference is the bit-at-a-time baseline, for
// comparing against BenchmarkEncodeCompactInto in the same run.
func BenchmarkEncodeCompactReference(b *testing.B) {
	s := New(40)
	for i := uint64(0); i < 10000; i++ {
		s.Insert(1, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkB = encodeCompactReference(s)
	}
}
