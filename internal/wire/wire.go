// Package wire is the byte-level message codec layer: every partial result,
// synopsis and piggybacked statistic that the paper costs in 32-bit words is
// serialized here into a deterministic binary format, so message sizes are
// measured from real encoded bytes instead of hand-maintained word
// arithmetic. The package sits at the bottom of the dependency stack — it
// imports nothing — and exposes two styles of API:
//
//   - append-style encoders, AppendX(dst []byte, ...) []byte, which grow a
//     caller-owned buffer and allocate nothing when the buffer has capacity
//     (the runner reuses one scratch buffer across all transmissions);
//   - a Reader with sticky-error decoding, so codecs chain field reads and
//     check a single error at the end. Malformed or truncated input yields
//     an error, never a panic — decode paths are fuzzed on arbitrary bytes.
//
// Integers use unsigned LEB128 varints (zigzag for signed values) and
// float64s are varint-encoded after byte reversal: the bit patterns of
// sensor-style readings (integers, short decimals) have long runs of
// trailing zero bytes, which the reversal turns into leading zeros that the
// varint drops. A reading like 25.0 costs 2 bytes; a worst-case float64
// costs 10. The encoding is exact for every float64 — losslessness is what
// lets the runner transmit real bytes while keeping epoch answers
// bit-identical to the in-memory implementation.
package wire

import (
	"errors"
	"math"
	"math/bits"
)

// BytesPerWord is the size of the paper's message accounting unit: one
// 32-bit word.
const BytesPerWord = 4

// Words converts an encoded byte length to the paper's 32-bit word
// accounting unit, rounding up: a message of n bytes occupies ceil(n/4)
// words on a TinyDB-style radio.
func Words(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + BytesPerWord - 1) / BytesPerWord
}

// MaxUvarintLen is the worst-case encoded size of a 64-bit varint.
const MaxUvarintLen = 10

// ErrTruncated reports input that ended before a field was complete.
var ErrTruncated = errors.New("wire: truncated input")

// ErrMalformed reports input that cannot be a valid encoding (varint
// overflow, bad tag, trailing garbage).
var ErrMalformed = errors.New("wire: malformed input")

// AppendUvarint appends v in unsigned LEB128 form.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// AppendVarint appends v zigzag-encoded, so small negative values stay
// small on the wire.
func AppendVarint(dst []byte, v int64) []byte {
	return AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

// UvarintLen returns the encoded size of v in unsigned LEB128 form — the
// size AppendUvarint would append.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendFloat64 appends v exactly: the IEEE-754 bit pattern is byte-reversed
// and varint-encoded, compressing the trailing zero bytes of typical sensor
// readings. Every float64 (including NaNs, infinities and -0) round-trips
// bit-for-bit.
func AppendFloat64(dst []byte, v float64) []byte {
	return AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(v)))
}

// AppendBytes appends b length-prefixed (uvarint length, then the raw
// bytes).
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Reader decodes a byte slice with sticky errors: after the first failure
// every further read returns the zero value and Err reports the cause, so
// codecs can decode a whole struct and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over data. The reader never copies: Bytes and
// Take return subslices of data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Fail records err as the reader's error unless an earlier one is already
// set — for codecs layered on the Reader whose own canonical-form checks
// fail mid-message, so their callers keep chaining reads and check once.
func (r *Reader) Fail(err error) { r.fail(err) }

// Finish verifies the input was fully consumed and returns the reader's
// error state. Trailing bytes are malformed input: every frame knows its own
// length.
func (r *Reader) Finish() error {
	if r.err == nil && r.Remaining() != 0 {
		r.fail(ErrMalformed)
	}
	return r.err
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned LEB128 varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i := 0; ; i++ {
		if i == MaxUvarintLen {
			r.fail(ErrMalformed)
			return 0
		}
		if r.off >= len(r.buf) {
			r.fail(ErrTruncated)
			return 0
		}
		b := r.buf[r.off]
		r.off++
		if i == MaxUvarintLen-1 && b > 1 {
			r.fail(ErrMalformed) // 64-bit overflow
			return 0
		}
		v |= uint64(b&0x7f) << uint(7*i)
		if b < 0x80 {
			return v
		}
	}
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// MinimalUvarint is Uvarint for canonical codecs: it also rejects, as
// malformed, an encoding longer than the value needs (a redundant zero final
// group), so that whatever a decoder built on it accepts re-encodes to the
// very bytes it came from.
func (r *Reader) MinimalUvarint() uint64 {
	start := r.off
	v := r.Uvarint()
	if r.err == nil && r.off-start != UvarintLen(v) {
		r.fail(ErrMalformed)
	}
	return v
}

// MinimalVarint is MinimalUvarint for a zigzag-encoded signed varint.
func (r *Reader) MinimalVarint() int64 {
	u := r.MinimalUvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float64 reads a float encoded by AppendFloat64.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.Uvarint()))
}

// Bytes reads a length-prefixed byte string written by AppendBytes. The
// returned slice aliases the reader's input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	return r.Take(int(n))
}

// Peek returns the unread input without consuming it (nil once the reader has
// failed) — for a codec that scans a run of short fields in place and then
// Takes exactly the bytes it used.
func (r *Reader) Peek() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.off:len(r.buf):len(r.buf)]
}

// Take reads exactly n raw bytes, aliasing the reader's input.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Count reads a uvarint element count and validates it against the bytes
// actually remaining: each element needs at least minElemBytes bytes, so a
// hostile length cannot force a huge allocation.
func (r *Reader) Count(minElemBytes int) int {
	return r.count(r.Uvarint(), minElemBytes)
}

// MinimalCount is Count reading the count through MinimalUvarint.
func (r *Reader) MinimalCount(minElemBytes int) int {
	return r.count(r.MinimalUvarint(), minElemBytes)
}

// count validates an element count n just read.
func (r *Reader) count(n uint64, minElemBytes int) int {
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(r.Remaining()/minElemBytes) {
		r.fail(ErrMalformed)
		return 0
	}
	return int(n)
}
