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
// The wire encoding of a sketch is self-delimiting and lossless, in one of
// two forms over the same bit stream: the K bitmaps as consecutive b-bit
// fields, little-endian (bitmap 0 in the low bits of the first byte), where
// b ∈ {0..32} is the number of bits the widest bitmap needs,
// bits.Len32(OR of all bitmaps). FM bitmaps fill from bit 0 upward and a field
// of n sensors almost never sets a bit above log2(n)+a few, so everything
// above the widest bitmap's top bit is dead weight on the radio.
//
//   - Dense: the header byte b, then the stream zero-padded to a whole byte:
//     1+⌈K·b/8⌉ bytes. The count of a whole 600-sensor field takes 9 bits per
//     bitmap, and an empty sketch is the single byte 0.
//   - Sparse: the header byte 0x40|b (b ≥ 1), a uvarint n ≥ 1 — the number
//     of set bits — and n uvarint gaps: the stream offsets m·b+bit of the set
//     bits in ascending order, each sent as its distance from the previous
//     one less 1 (the first from −1). It is the run-length code of the dense
//     stream, and most sketches a field ships are nearly empty: a single
//     reading's Count synopsis is 3 bytes where the dense form needs 6.
//
// The encoder emits the sparse form exactly when it is strictly shorter, so
// no encoding exceeds the dense ceiling 1+4K (WireBytes). It is the lossless
// counterpart of the paper's §7.1 packing (40 bitmaps run-length-packed into
// one 48-byte TinyDB message): unlike EncodeCompact, which drops bits above
// the fringe window and is kept for those TinyDB experiments, the wire codec
// is what the runner actually transmits, so the decoded sketch is
// bit-identical to the sender's.
//
// The encoding is canonical — the form is the shorter one, b is the minimal
// width, varints are minimal, offsets lie inside the K·b-bit stream and the
// padding bits are zero; the decoder rejects anything else, and any other
// header byte — so equal sketches encode to equal bytes. The dense encoder
// streams each packed word (a pair of bitmaps) as one 2b-bit field through a
// 64-bit accumulator that spills eight bytes at a time; the dense decoder
// reads fields straight from their bit offsets with clamped unaligned loads,
// four field pairs per load when b ≤ 8 (eight bitmaps then fill exactly b
// bytes). The sparse encoder walks a mask of the nonzero words, taking each
// word's set bits from its 2b-bit field, and gives up as soon as the gaps
// outgrow the dense form; the sparse decoder reads one-byte gaps in place
// and maps an offset to its bitmap by a reciprocal multiply.
//
// The bitmap count is carried by context (the aggregate's configuration),
// not the message, exactly as a fixed deployment-wide query plan would.

// sparseHeader flags the sparse form: its header byte is sparseHeader|b.
const sparseHeader = 0x40

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

// sparseFloor is the length of a sparse form of n set bits whose gaps all
// take one byte — no sparse form of n set bits is shorter.
func sparseFloor(n int) int { return 1 + wire.UvarintLen(uint64(n)) + n }

// pairField joins packed word x's two bitmaps into their 2b-bit field of the
// dense stream: the low bitmap's b bits, then the high one's.
func pairField(x uint64, b uint) uint64 {
	return x&(1<<BitmapBits-1) | x>>BitmapBits<<(b&63)
}

// AppendWire appends the lossless wire encoding of the sketch to dst: one
// pass over the packed words picks the width b and counts the set bits; a
// sketch whose sparse form would be shorter if every gap took one byte tries
// that form, and the rest — and every sparse attempt that does not come out
// shorter — stream out as b-bit fields. This is the runner's per-broadcast
// hot path; the packing loop lives here rather than in a helper because the
// call is a measurable share of the encode (it cost ≈2 ns of 31).
//
//td:hotpath
func (s *Sketch) AppendWire(dst []byte) []byte {
	var or, nz uint64
	set := 0
	for i, x := range s.words {
		or |= x
		set += bits.OnesCount64(x)
		nz |= nonzero(x) << uint(i&63) // exact for up to 64 words
	}
	b := fieldBits(or)
	off, n := len(dst), 1+packedBytes(s.k, b)
	dst = slices.Grow(dst, n)[:off+n]
	if sparseFloor(set) < n {
		if m := s.putSparse(dst[off:off+n], b, set, nz); m > 0 {
			return dst[:off+m]
		}
	}
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
		v := pairField(x, b)
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

// putSparse writes the sparse form of the sketch — width b, n set bits — to
// out, which has the dense form's length, and returns its length, or 0 if it
// is not shorter than the dense form. AppendWire has checked that it is when
// every gap takes one byte; slack is the room left for longer gaps. The set
// bits are taken in stream order from a mask of the nonzero words — nz,
// AppendWire's, when there are at most 64 words — and each word's bits from
// its 2b-bit field, so an offset is the field's plus a trailing-zero count.
// Most nonzero words of a sparse sketch hold one or two set bits and follow
// a short gap: those store both gap bytes without branching on the count,
// and a lone bit's second byte is scratch that the next store overwrites —
// or, at the very end, the dense form's last byte, which the sparse form
// never reaches.
//
//td:hotpath
func (s *Sketch) putSparse(out []byte, b uint, n int, nz uint64) int {
	out[0] = sparseHeader | byte(b)
	p := len(wire.AppendUvarint(out[:1], uint64(n)))
	slack := len(out) - 1 - sparseFloor(n)
	next := uint(0) // the offset just past the last set bit
	for c := 0; c < len(s.words); c += 64 {
		chunk := s.words[c:min(c+64, len(s.words))]
		if len(s.words) > 64 {
			nz = 0
			for i, x := range chunk {
				nz |= nonzero(x) << uint(i)
			}
		}
		for ; nz != 0; nz &= nz - 1 {
			i := bits.TrailingZeros64(nz)
			at := uint(c+i) * 2 * b
			v := pairField(chunk[i], b)
			rest := v & (v - 1)
			o1 := at + uint(bits.TrailingZeros64(v))
			o2 := at + uint(bits.TrailingZeros64(rest)) // at+64 for a lone bit
			if g := uint64(o1 - next); g < 0x80 && rest&(rest-1) == 0 {
				two := nonzero(rest)
				out[p], out[p+1] = byte(g), byte(o2-o1-1) // the second gap is below 2b ≤ 64
				p += 1 + int(two)
				next = o1 + 1 + uint(uint64(o2-o1)&-two)
				continue
			}
			for ; v != 0; v &= v - 1 {
				o := at + uint(bits.TrailingZeros64(v))
				g := uint64(o - next)
				next = o + 1
				if g < 0x80 {
					out[p] = byte(g)
					p++
					continue
				}
				if slack -= wire.UvarintLen(g) - 1; slack < 0 {
					return 0
				}
				p = len(wire.AppendUvarint(out[:p], g))
			}
		}
	}
	return p
}

// nonzero returns 1 if x != 0 and 0 otherwise, without a branch.
func nonzero(x uint64) uint64 { return (x | -x) >> 63 }

// sparseLen returns the length of the sketch's sparse form at width b if it
// is below limit, and limit otherwise — the decoder's check that a dense
// form it accepts is the shorter one.
//
//td:hotpath
func (s *Sketch) sparseLen(b uint, limit int) int {
	set := 0
	for _, x := range s.words {
		set += bits.OnesCount64(x)
	}
	size := sparseFloor(set)
	next := uint(0)
	for i, x := range s.words {
		if size >= limit {
			return limit
		}
		at := uint(i) * 2 * b
		for v := pairField(x, b); v != 0; v &= v - 1 {
			o := at + uint(bits.TrailingZeros64(v))
			size += wire.UvarintLen(uint64(o-next)) - 1 // sparseFloor counted one byte
			next = o + 1
		}
	}
	return min(size, limit)
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
// by pools that recycle sketches across messages. The accepted header bytes
// are 0..32 (dense) and 0x41..0x60 (sparse). Anything else (truncated,
// trailing bytes, any other header, a width wider than the bitmaps need,
// nonzero padding, a sparse form with no set bits, an offset past the K·b-bit
// stream or a non-minimal varint, and whichever form is not the shorter one)
// is an error, and s's contents are then unspecified.
//
//td:hotpath
func (s *Sketch) LoadWire(data []byte) error {
	r := wire.NewReader(data)
	ReadWireInto(r, s)
	return r.Finish()
}

// The ways an encoding of the right length can still be non-canonical.
var (
	errHeader      = fmt.Errorf("sketch: header is neither a width 0..%d nor %#x|1..%d: %w", BitmapBits, sparseHeader, BitmapBits, wire.ErrMalformed)
	errNotMinimal  = fmt.Errorf("sketch: field width is not minimal: %w", wire.ErrMalformed)
	errPadding     = fmt.Errorf("sketch: nonzero padding bits: %w", wire.ErrMalformed)
	errNoSetBits   = fmt.Errorf("sketch: sparse form with no set bits: %w", wire.ErrMalformed)
	errOffset      = fmt.Errorf("sketch: sparse offset past the bitmaps: %w", wire.ErrMalformed)
	errNotShorter  = fmt.Errorf("sketch: sparse form not shorter than the dense form: %w", wire.ErrMalformed)
	errSparseFirst = fmt.Errorf("sketch: dense form longer than the sparse form: %w", wire.ErrMalformed)
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
// padding bits, a b wider than the decoded bitmaps need and a sketch whose
// sparse form is shorter.
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
	if dense := 1 + packedBytes(s.k, b); s.sparseLen(b, dense) < dense {
		return errSparseFirst
	}
	return nil
}

// loadSparse overwrites s's bitmaps from the sparse form of width b ≤ 32
// whose header r has just read, rejecting every spelling AppendWire would
// not emit. One-byte gaps are read in place; longer ones, and a cut, go
// through the reader. An offset o maps to its bitmap o/b as
// hi((o+1)·⌊(2^64−1)/b⌋), exact for every o below 2^64/b.
//
//td:hotpath
func (s *Sketch) loadSparse(r *wire.Reader, b uint) error {
	left := r.Remaining()
	n := r.MinimalCount(1) // every gap takes at least a byte
	if err := r.Err(); err != nil {
		return err
	}
	if n == 0 {
		return errNoSetBits
	}
	clear(s.words)
	end := uint64(s.k) * uint64(b) // the stream's length in bits
	inv := ^uint64(0) / uint64(b)
	var p, top uint64 // the offset just past the last set bit; OR of 1<<bit
	in, i := r.Peek(), 0
	for ; n > 0; n-- {
		var g uint64
		if i < len(in) && in[i] < 0x80 {
			g = uint64(in[i])
			i++
		} else {
			r.Take(i)
			if g = r.MinimalUvarint(); r.Err() != nil {
				return r.Err()
			}
			in, i = r.Peek(), 0
		}
		if g >= end-p {
			return errOffset
		}
		p += g + 1
		m, _ := bits.Mul64(p, inv)
		bit := p - 1 - m*uint64(b)
		top |= 1 << bit
		s.words[m>>1] |= 1 << (bit + (m&1)*BitmapBits)
	}
	r.Take(i)
	if bits.Len64(top) != int(b) {
		return errNotMinimal
	}
	if 1+left-r.Remaining() >= 1+packedBytes(s.k, b) {
		return errNotShorter
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
// overwritten (its contents are unspecified once the reader has failed). It
// accepts a dense header 0..32 and a sparse header 0x41..0x60, and the
// canonical encodings LoadWire lists.
func ReadWireInto(r *wire.Reader, dst *Sketch) {
	h := uint(r.Byte()) // 0, a dense empty sketch, if the reader has failed
	var err error
	switch b := h &^ sparseHeader; {
	case h <= BitmapBits:
		body := r.Take(packedBytes(dst.k, h))
		if r.Err() != nil {
			return
		}
		err = dst.unpackFields(h, body)
	case h&sparseHeader != 0 && b-1 < BitmapBits:
		err = dst.loadSparse(r, b)
	default:
		err = errHeader
	}
	if err != nil {
		r.Fail(err)
	}
}
