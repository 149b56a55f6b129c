package sketch

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"tributarydelta/internal/wire"
)

// Wire codec.
//
// The wire encoding of a sketch is self-delimiting and byte-trimmed: one
// header byte w ∈ {0..4} — the number of bytes the widest bitmap needs,
// ceil(bits.Len32(OR of all bitmaps)/8) — then the K bitmaps as little-endian
// w-byte fields, 1+w·K bytes in all. FM bitmaps fill from bit 0 upward and a
// field of n sensors almost never sets a bit above log2(n)+a few, so the
// upper bytes of a fixed 32-bit field are dead weight on the radio: a
// 600-sensor Count synopsis travels as 1+2·K bytes, an empty sketch as the
// single byte 0. It is the lossless counterpart of the paper's §7.1 packing
// (40 bitmaps run-length-packed into one 48-byte TinyDB message): unlike
// EncodeCompact, which drops bits above the fringe window and is kept for
// those TinyDB experiments, the wire codec is what the runner actually
// transmits, so the decoded sketch is bit-identical to the sender's.
//
// The encoding is canonical — w is always the minimal width, and the decoder
// rejects any other — so equal sketches encode to equal bytes. Fields stay
// byte-aligned so both directions move a packed word (a pair of bitmaps) per
// 2-, 4- or 8-byte store for w = 1, 2, 4, and per 4+2-byte store for w = 3;
// a bit-packed variant is smaller still but costs half again the epoch time.
// The bitmap count is carried by context (the aggregate's configuration),
// not the message, exactly as a fixed deployment-wide query plan would.

// maxWidth is the widest field: a full 32-bit bitmap.
const maxWidth = BitmapBits / 8

// WireBytes returns the maximum encoded size of a k-bitmap sketch in bytes:
// the header plus k full-width fields. Encodings are usually shorter; use it
// for capacity hints, never to delimit a sketch inside a message.
func WireBytes(k int) int { return 1 + k*maxWidth }

// WireWords is WireBytes in the paper's 32-bit message words, rounded up.
func WireWords(k int) int { return wire.Words(WireBytes(k)) }

// fieldWidth returns the minimal field width, in bytes, of a sketch whose
// packed words OR to or.
func fieldWidth(or uint64) int {
	return (bits.Len32(uint32(or)|uint32(or>>BitmapBits)) + 7) / 8
}

// AppendWire appends the lossless wire encoding of the sketch to dst: one OR
// pass over the packed words picks the width, then each packed uint64 word
// (two bitmaps) goes out as one 2w-byte field pair. This is the runner's
// per-broadcast hot path.
//
//td:hotpath
func (s *Sketch) AppendWire(dst []byte) []byte {
	var or uint64
	for _, x := range s.words {
		or |= x
	}
	w := fieldWidth(or)
	off := len(dst)
	dst = append(dst, make([]byte, 1+w*s.k)...)
	dst[off] = byte(w)
	body := dst[off+1:]
	pairs := s.words[:s.k/2]
	switch w {
	case 1:
		for _, x := range pairs {
			binary.LittleEndian.PutUint16(body, uint16(x&0xff|x>>24&0xff00))
			body = body[2:]
		}
	case 2:
		for _, x := range pairs {
			binary.LittleEndian.PutUint32(body, uint32(x&0xffff|x>>16&0xffff0000))
			body = body[4:]
		}
	case 3:
		for _, x := range pairs {
			v := x&0xffffff | x>>8&0xffffff000000
			binary.LittleEndian.PutUint32(body, uint32(v))
			binary.LittleEndian.PutUint16(body[4:], uint16(v>>32))
			body = body[6:]
		}
	case 4:
		// The little-endian image of a packed word is exactly the two
		// little-endian 32-bit bitmaps it holds.
		for _, x := range pairs {
			binary.LittleEndian.PutUint64(body, x)
			body = body[8:]
		}
	}
	if s.k&1 == 1 { // the odd bitmap out: body is its w-byte field
		for i, x := 0, s.words[len(pairs)]; i < w; i++ {
			body[i] = byte(x >> (8 * uint(i)))
		}
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
// trailing bytes, a header above 4, a width wider than the bitmaps need) is
// an error, and s's contents are then unspecified.
//
//td:hotpath
func (s *Sketch) LoadWire(data []byte) error {
	r := wire.NewReader(data)
	ReadWireInto(r, s)
	return r.Finish()
}

// The ways an encoding of the right length can still be non-canonical.
var (
	errWidthHeader = fmt.Errorf("sketch: width header above %d: %w", maxWidth, wire.ErrMalformed)
	errNotMinimal  = fmt.Errorf("sketch: field width is not minimal: %w", wire.ErrMalformed)
)

// loadFields overwrites s's bitmaps from k fields of w bytes each; body is
// exactly w·k bytes and w ≤ maxWidth (ReadWireInto has checked). It rejects
// a w wider than the decoded bitmaps need.
func (s *Sketch) loadFields(w int, body []byte) error {
	pairs := s.words[:s.k/2]
	var or uint64
	switch w {
	case 0:
		clear(pairs)
	case 1:
		for i := range pairs {
			v := uint64(binary.LittleEndian.Uint16(body))
			pairs[i] = v&0xff | v>>8<<BitmapBits
			or |= pairs[i]
			body = body[2:]
		}
	case 2:
		for i := range pairs {
			v := uint64(binary.LittleEndian.Uint32(body))
			pairs[i] = v&0xffff | v>>16<<BitmapBits
			or |= pairs[i]
			body = body[4:]
		}
	case 3:
		for i := range pairs {
			v := uint64(binary.LittleEndian.Uint32(body)) | uint64(binary.LittleEndian.Uint16(body[4:]))<<32
			pairs[i] = v&0xffffff | v>>24<<BitmapBits
			or |= pairs[i]
			body = body[6:]
		}
	case 4:
		for i := range pairs {
			pairs[i] = binary.LittleEndian.Uint64(body)
			or |= pairs[i]
			body = body[8:]
		}
	}
	if s.k&1 == 1 { // the odd bitmap out: body is its w-byte field
		var x uint64
		for i := 0; i < w; i++ {
			x |= uint64(body[i]) << (8 * uint(i))
		}
		s.words[len(pairs)] = x
		or |= x
	}
	if fieldWidth(or) != w {
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
	w := int(r.Byte())
	if w > maxWidth {
		r.Fail(errWidthHeader)
		return
	}
	body := r.Take(w * dst.k)
	if r.Err() != nil {
		return
	}
	if err := dst.loadFields(w, body); err != nil {
		r.Fail(err)
	}
}
