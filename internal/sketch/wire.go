package sketch

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"tributarydelta/internal/wire"
)

// Wire codec.
//
// The wire encoding of a sketch is self-delimiting and bit-packed: one header
// byte b ∈ {0..32} — the number of bits the widest bitmap needs,
// bits.Len32(OR of all bitmaps) — then the K bitmaps as consecutive b-bit
// fields in a little-endian bit stream (bitmap 0 in the low bits of the first
// byte), zero-padded to a whole byte: 1+⌈K·b/8⌉ bytes in all. FM bitmaps fill
// from bit 0 upward and a field of n sensors almost never sets a bit above
// log2(n)+a few, so everything above the widest bitmap's top bit is dead
// weight on the radio: a leaf's Count synopsis needs 1 bit per bitmap, the
// count of a whole 600-sensor field 9, and an empty sketch is the single
// byte 0. It is the lossless
// counterpart of the paper's §7.1 packing (40 bitmaps run-length-packed into
// one 48-byte TinyDB message): unlike EncodeCompact, which drops bits above
// the fringe window and is kept for those TinyDB experiments, the wire codec
// is what the runner actually transmits, so the decoded sketch is
// bit-identical to the sender's.
//
// The encoding is canonical — b is always the minimal width and the padding
// bits are zero, and the decoder rejects anything else — so equal sketches
// encode to equal bytes. The encoder streams each packed word (a pair of
// bitmaps) as one 2b-bit field through a 64-bit accumulator that spills eight
// bytes at a time; the decoder reads fields straight from their bit offsets
// with clamped unaligned loads, four field pairs per load when b ≤ 8 (eight
// bitmaps then fill exactly b bytes). Against the byte-aligned fields it
// replaced, on K = 40 sketches of the widths a 600-sensor field produces,
// in random order (BenchmarkWireMixed, 2-vCPU AMD EPYC): encode 24 → 29 ns,
// decode 20 → 31 ns per sketch. They buy 39 % of a 600-sensor TD Count
// epoch's radio bytes (46 384 → 28 308 B).
//
// The bitmap count is carried by context (the aggregate's configuration),
// not the message, exactly as a fixed deployment-wide query plan would.

// WireBytes returns the maximum encoded size of a k-bitmap sketch in bytes:
// the header plus k full 32-bit fields. Encodings are usually shorter; use it
// for capacity hints, never to delimit a sketch inside a message.
func WireBytes(k int) int { return 1 + packedBytes(k, BitmapBits) }

// WireWords is WireBytes in the paper's 32-bit message words, rounded up.
func WireWords(k int) int { return wire.Words(WireBytes(k)) }

// fieldBits returns the minimal field width, in bits, of a sketch whose
// packed words OR to or.
func fieldBits(or uint64) uint {
	return uint(bits.Len32(uint32(or) | uint32(or>>BitmapBits)))
}

// packedBytes is the body length of k b-bit fields.
func packedBytes(k int, b uint) int { return int((uint(k)*b + 7) / 8) }

// AppendWire appends the lossless wire encoding of the sketch to dst: one OR
// pass over the packed words picks the width b, then the bitmaps stream out
// as b-bit fields. This is the runner's per-broadcast hot path; the packing
// loop lives here rather than in a helper because the call is a measurable
// share of the encode (it cost ≈2 ns of 31).
//
//td:hotpath
func (s *Sketch) AppendWire(dst []byte) []byte {
	var or uint64
	for _, x := range s.words {
		or |= x
	}
	b := fieldBits(or)
	off, n := len(dst), 1+packedBytes(s.k, b)
	dst = slices.Grow(dst, n)[:off+n]
	dst[off] = byte(b)
	if b == 0 {
		return dst
	}
	// The K bitmaps stream out as b-bit fields, lowest first: each packed
	// word (two bitmaps) as one 2b-bit field through a 64-bit accumulator
	// that spills eight bytes at a time, then the odd bitmap of an odd K.
	// Every body byte is written, the padding bits as zeros. Shift counts
	// are masked with &63 so they compile to bare shifts; the one shift
	// that can reach 64 is split as >>1>>(c-1).
	body, w := dst[off+1:], 2*b
	var acc uint64 // pending stream bits, lowest first
	var m uint     // how many; always < 64
	for _, x := range s.words[:s.k>>1] {
		v := x&(1<<BitmapBits-1) | x>>BitmapBits<<(b&63)
		acc |= v << (m & 63)
		if m += w; m >= 64 {
			binary.LittleEndian.PutUint64(body, acc)
			body = body[8:]
			m -= 64
			acc = v >> 1 >> ((w - m - 1) & 63) // v's bits that did not fit
		}
	}
	if s.k&1 == 1 {
		odd := s.words[len(s.words)-1]
		acc |= odd << (m & 63)
		if m += b; m >= 64 {
			binary.LittleEndian.PutUint64(body, acc)
			body = body[8:]
			m -= 64
			acc = odd >> 1 >> ((b - m - 1) & 63)
		}
	}
	for i := range body { // the final ⌈m/8⌉ bytes
		body[i] = byte(acc)
		acc >>= 8
	}
	return dst
}

// DecodeWire parses a sketch of k bitmaps from exactly the bytes AppendWire
// produced for it.
func DecodeWire(data []byte, k int) (*Sketch, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sketch: decode with non-positive k %d", k)
	}
	r := wire.NewReader(data)
	s := ReadWire(r, k)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("sketch: %d-byte encoding for k=%d: %w", len(data), k, err)
	}
	return s, nil
}

// LoadWire overwrites s's bitmaps from data, which must be exactly one
// canonical encoding of a K()-bitmap sketch — the allocation-free decode used
// by pools that recycle sketches across messages. Anything else (truncated,
// trailing bytes, a header above 32, a width wider than the bitmaps need,
// nonzero padding) is an error, and s's contents are then unspecified.
//
//td:hotpath
func (s *Sketch) LoadWire(data []byte) error {
	r := wire.NewReader(data)
	ReadWireInto(r, s)
	return r.Finish()
}

// The ways an encoding of the right length can still be non-canonical.
var (
	errWidthHeader = fmt.Errorf("sketch: width header above %d: %w", BitmapBits, wire.ErrMalformed)
	errNotMinimal  = fmt.Errorf("sketch: field width is not minimal: %w", wire.ErrMalformed)
	errPadding     = fmt.Errorf("sketch: nonzero padding bits: %w", wire.ErrMalformed)
)

// window returns body's bit stream from bit p on, lowest first, through one
// unaligned eight-byte load clamped to the body's last eight bytes: at least
// min(57, 8·len(body)−p) valid bits, min(64, 8·len(body)−p) when p is a
// multiple of 8. last is len(body)−8. The clamp and the shift are
// branch-free, so a field's position never costs a misprediction.
func window(body []byte, last, p uint) uint64 {
	j := p >> 3
	over := int(j) - int(last)
	j -= uint(over &^ (over >> 63)) // j = min(j, last)
	return binary.LittleEndian.Uint64(body[j:]) >> ((p - 8*j) & 63)
}

// unpackFields overwrites s's bitmaps from body, exactly packedBytes(K, b)
// bytes of b-bit fields with b ≤ 32 (ReadWireInto has checked) — the mirror
// image of AppendWire's packing loop. Fields are read straight from their
// bit offsets, so no field waits on the one before it. It rejects nonzero
// padding bits and a b wider than the decoded bitmaps need.
//
//td:hotpath
func (s *Sketch) unpackFields(b uint, body []byte) error {
	if b == 0 {
		clear(s.words)
		return nil
	}
	end := uint(s.k) * b // the stream's length in bits
	if end&7 != 0 && body[len(body)-1]>>(end&7) != 0 {
		return errPadding
	}
	var short [8]byte
	if len(body) < 8 { // give window eight bytes to load, zero-extended
		copy(short[:], body)
		body = short[:]
	}
	last := uint(len(body) - 8)
	low := uint64(1)<<b - 1
	b &= 63 // lets the shifts below compile without range checks
	w := 2 * b
	pairs := s.words[:s.k>>1]
	i, p := 0, uint(0) // the next pair to fill, and its bit offset
	var or uint64
	if b <= 8 {
		// Four field pairs fill exactly b bytes: one byte-aligned load each,
		// which the unaligned single-pair loop below would need four times.
		for i = 3; i < len(pairs); i += 4 {
			v := window(body, last, p)
			x0 := v&low | v>>b&low<<BitmapBits
			v >>= w
			x1 := v&low | v>>b&low<<BitmapBits
			v >>= w
			x2 := v&low | v>>b&low<<BitmapBits
			v >>= w
			x3 := v&low | v>>b&low<<BitmapBits
			pairs[i-3], pairs[i-2], pairs[i-1], pairs[i] = x0, x1, x2, x3
			or |= x0 | x1 | x2 | x3
			p += 4 * w
		}
		i -= 3
	}
	for ; i < len(pairs); i++ {
		v := window(body, last, p)
		hi := v >> b
		if w > 57 { // b ≥ 29 (huge sums only): the high field may lie past this window
			hi = window(body, last, p+b)
		}
		x := v&low | hi&low<<BitmapBits
		pairs[i] = x
		or |= x
		p += w
	}
	if s.k&1 == 1 {
		x := window(body, last, end-b) & low
		s.words[len(pairs)] = x
		or |= x
	}
	if fieldBits(or) != b {
		return errNotMinimal
	}
	return nil
}

// ReadWire parses a sketch of k bitmaps from a reader positioned at its
// header byte — the form used when a sketch is one field of a larger
// message; the encoding delimits itself, so the reader is left at the next
// field. On truncated or non-canonical input the reader's error is set.
func ReadWire(r *wire.Reader, k int) *Sketch {
	s := New(k)
	ReadWireInto(r, s)
	return s
}

// ReadWireInto is ReadWire decoding into a recycled sketch: dst is fully
// overwritten (its contents are unspecified once the reader has failed).
func ReadWireInto(r *wire.Reader, dst *Sketch) {
	b := uint(r.Byte())
	if b > BitmapBits {
		r.Fail(errWidthHeader)
		return
	}
	body := r.Take(packedBytes(dst.k, b))
	if r.Err() != nil {
		return
	}
	if err := dst.unpackFields(b, body); err != nil {
		r.Fail(err)
	}
}
