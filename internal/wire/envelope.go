package wire

import "math"

// Kind tags the two message schemes of the framework (§2): exact tree
// partials unicast to a parent, and duplicate-insensitive synopses broadcast
// up the rings.
type Kind uint8

const (
	// KindTree frames an exact tree partial result.
	KindTree Kind = 1
	// KindSynopsis frames a multi-path synopsis.
	KindSynopsis Kind = 2
)

// Version is the envelope format version: the high nibble of the header
// byte.
const Version = 1

// Header byte layout: Version in the high nibble, the kind in bits 0–1, the
// NC-present flag in bit 2 (synopsis frames only) and bit 3 reserved, zero.
const (
	headerKindMask = 0x03
	headerNC       = 0x04
	headerReserved = 0x08
)

// Envelope is the framed radio message of one transmission: the scheme tag,
// the sender, the piggybacked contributing-Count (an exact integer in the
// tributaries, an encoded FM sketch in the delta), the §4.2 adaptation
// statistics when the sender ships them, and the aggregate-specific payload
// produced by the aggregate's partial or synopsis codec.
//
// The frame is one header byte, the sender, the kind's fields and then the
// payload, which runs to the end of the frame: the payload codecs delimit
// themselves and reject trailing or missing bytes. The epoch is not a field —
// every receiver learns it from outside the frame (the runner's round, the
// UDP datagram's round header).
//
// The simulator's ground-truth contributor bitset is deliberately NOT part
// of the envelope: it is bookkeeping about the network, not a field a real
// sensor message could carry, and must not count toward transmission cost.
type Envelope struct {
	// Kind is the scheme tag: tree partial or multi-path synopsis.
	Kind Kind
	// From is the sending node id.
	From uint32

	// Contrib is the exact contributing-node count of a tree partial
	// (KindTree only).
	Contrib int64

	// ContribSketch is the encoded duplicate-insensitive contributing-Count
	// sketch (KindSynopsis only). It keeps a length prefix: the sketch
	// codec needs the bitmap count to delimit itself, which the envelope
	// does not know.
	ContribSketch []byte

	// TopNC, MinNC and NCValid carry the §4.2 non-contributing subtree
	// statistics (KindSynopsis only). TopNC is descending; NCValid marks
	// presence and is the header's NC flag.
	TopNC []int
	// MinNC is the smallest tracked non-contributing subtree size (see
	// TopNC).
	MinNC int
	// NCValid marks the presence of the TopNC/MinNC statistics (see TopNC).
	NCValid bool

	// Payload is the aggregate-specific encoding of the partial result or
	// synopsis.
	Payload []byte
}

// AppendEnvelope appends the framed encoding of e to dst.
func AppendEnvelope(dst []byte, e *Envelope) []byte {
	header := byte(Version<<4) | byte(e.Kind)&headerKindMask
	nc := e.Kind == KindSynopsis && e.NCValid
	if nc {
		header |= headerNC
	}
	dst = append(dst, header)
	dst = AppendUvarint(dst, uint64(e.From))
	switch e.Kind {
	case KindTree:
		dst = AppendVarint(dst, e.Contrib)
	case KindSynopsis:
		dst = AppendBytes(dst, e.ContribSketch)
		if nc {
			dst = AppendUvarint(dst, uint64(len(e.TopNC)))
			for _, v := range e.TopNC {
				dst = AppendVarint(dst, int64(v))
			}
			dst = AppendVarint(dst, int64(e.MinNC))
		}
	}
	return append(dst, e.Payload...)
}

// MaxSynopsisEnvelopeBytes bounds the framed size of a KindSynopsis envelope
// whose contributing sketch, TopNC list and payload are at most the given
// sizes — what a sender pre-sizes its frame buffers to, so frames whose
// fields vary epoch to epoch never regrow them.
func MaxSynopsisEnvelopeBytes(contribBytes, topNC, payloadBytes int) int {
	const uvarint32 = 5 // From is 32-bit

	return 1 + uvarint32 + // header, from
		UvarintLen(uint64(contribBytes)) + contribBytes +
		(1+topNC+1)*MaxUvarintLen + // count, TopNC values, MinNC
		payloadBytes
}

// DecodeEnvelope parses a frame produced by AppendEnvelope. The returned
// envelope's byte fields alias data. Each call allocates the TopNC slice
// afresh; hot receive loops decode through a reusable Decoder instead.
func DecodeEnvelope(data []byte) (Envelope, error) {
	var d Decoder
	return d.Decode(data)
}

// Decoder decodes envelopes with reusable scratch: the TopNC values of every
// decoded envelope are carved out of one growing arena instead of a fresh
// allocation per frame, so a steady-state receive loop decodes with zero
// allocations. The zero value is ready to use; a Decoder must not be shared
// between goroutines (the epoch engine keeps one per worker).
//
// Lifetime contract: the TopNC slices (and the byte fields, which alias the
// input data) of every envelope returned since the last Reset stay valid
// until the next Reset — the arena only ever grows between Resets, and
// growth copies, leaving earlier views intact.
type Decoder struct {
	topNC []int
}

// Reset releases the decoder's scratch for reuse. Envelopes decoded before
// the Reset must no longer be read.
func (d *Decoder) Reset() {
	d.topNC = d.topNC[:0]
}

// Decode parses a frame produced by AppendEnvelope, drawing TopNC storage
// from the decoder's arena. See the Decoder type docs for the lifetime
// contract; errors match DecodeEnvelope's.
//
// The decoder accepts exactly the frames AppendEnvelope emits: an unknown
// version nibble or kind, a reserved header bit, the NC flag on a tree frame
// and a non-minimal varint are all malformed. The payload is whatever
// follows the envelope's fields; truncated or trailing payload bytes are for
// the payload codec to reject.
func (d *Decoder) Decode(data []byte) (Envelope, error) {
	r := NewReader(data)
	var e Envelope
	header := r.Byte()
	if err := r.Err(); err != nil {
		return Envelope{}, err
	}
	e.Kind = Kind(header & headerKindMask)
	e.NCValid = header&headerNC != 0
	if header>>4 != Version || header&headerReserved != 0 ||
		(e.Kind != KindTree && e.Kind != KindSynopsis) || (e.Kind == KindTree && e.NCValid) {
		return Envelope{}, ErrMalformed
	}
	from := r.minimalUvarint()
	if r.Err() == nil && from > math.MaxUint32 {
		return Envelope{}, ErrMalformed
	}
	e.From = uint32(from)
	if e.Kind == KindTree {
		e.Contrib = r.minimalVarint()
	} else {
		e.ContribSketch = r.Take(int(r.minimalUvarint()))
		if e.NCValid {
			start := r.off
			n := r.Count(1)
			r.requireMinimal(start, uint64(n))
			if n > 0 {
				base := len(d.topNC)
				for i := 0; i < n; i++ {
					d.topNC = append(d.topNC, int(r.minimalVarint()))
				}
				e.TopNC = d.topNC[base:]
			}
			e.MinNC = int(r.minimalVarint())
		}
	}
	e.Payload = r.Take(r.Remaining())
	if err := r.Err(); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// requireMinimal fails r if the uvarint read from offset start, which decoded
// to v, spent more bytes than v needs (a redundant zero final group) — so
// that every accepted envelope re-encodes to the very bytes it came from.
func (r *Reader) requireMinimal(start int, v uint64) {
	if r.err == nil && r.off-start != UvarintLen(v) {
		r.fail(ErrMalformed)
	}
}

// minimalUvarint reads a uvarint and rejects a non-minimal encoding.
func (r *Reader) minimalUvarint() uint64 {
	start := r.off
	v := r.Uvarint()
	r.requireMinimal(start, v)
	return v
}

// minimalVarint is minimalUvarint for a zigzag-encoded signed varint.
func (r *Reader) minimalVarint() int64 {
	u := r.minimalUvarint()
	return int64(u>>1) ^ -int64(u&1)
}
