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

// Version is the envelope format version; the first frame byte.
const Version = 1

// Envelope is the framed radio message of one transmission: the scheme tag,
// the epoch and sender, the piggybacked contributing-Count (an exact integer
// in the tributaries, an encoded FM sketch in the delta), the §4.2
// adaptation statistics, and the aggregate-specific payload produced by the
// aggregate's partial or synopsis codec.
//
// The simulator's ground-truth contributor bitset is deliberately NOT part
// of the envelope: it is bookkeeping about the network, not a field a real
// sensor message could carry, and must not count toward transmission cost.
type Envelope struct {
	// Kind is the scheme tag: tree partial or multi-path synopsis.
	Kind Kind
	// Epoch is the collection round the message belongs to.
	Epoch uint32
	// From is the sending node id.
	From uint32

	// Contrib is the exact contributing-node count of a tree partial
	// (KindTree only).
	Contrib int64

	// ContribSketch is the encoded duplicate-insensitive contributing-Count
	// sketch (KindSynopsis only).
	ContribSketch []byte

	// TopNC, MinNC and NCValid carry the §4.2 non-contributing subtree
	// statistics (KindSynopsis only). TopNC is descending; NCValid marks
	// presence.
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
	dst = append(dst, Version, byte(e.Kind))
	dst = AppendUvarint(dst, uint64(e.Epoch))
	dst = AppendUvarint(dst, uint64(e.From))
	switch e.Kind {
	case KindTree:
		dst = AppendVarint(dst, e.Contrib)
	case KindSynopsis:
		dst = AppendBytes(dst, e.ContribSketch)
		dst = AppendBool(dst, e.NCValid)
		if e.NCValid {
			dst = AppendUvarint(dst, uint64(len(e.TopNC)))
			for _, v := range e.TopNC {
				dst = AppendVarint(dst, int64(v))
			}
			dst = AppendVarint(dst, int64(e.MinNC))
		}
	}
	return AppendBytes(dst, e.Payload)
}

// MaxSynopsisEnvelopeBytes bounds the framed size of a KindSynopsis envelope
// whose contributing sketch, TopNC list and payload are at most the given
// sizes — what a sender pre-sizes its frame buffers to, so frames whose
// fields vary epoch to epoch never regrow them.
func MaxSynopsisEnvelopeBytes(contribBytes, topNC, payloadBytes int) int {
	const uvarint32 = 5 // Epoch and From are 32-bit

	return 2 + 2*uvarint32 + // version, kind, epoch, from
		UvarintLen(uint64(contribBytes)) + contribBytes +
		1 + (1+topNC+1)*MaxUvarintLen + // NCValid; count, TopNC values, MinNC
		UvarintLen(uint64(payloadBytes)) + payloadBytes
}

// DecodeEnvelope parses a frame produced by AppendEnvelope. The returned
// envelope's byte fields alias data. Trailing bytes, unknown versions and
// unknown kinds are errors. Each call allocates the TopNC slice afresh; hot
// receive loops decode through a reusable Decoder instead.
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
func (d *Decoder) Decode(data []byte) (Envelope, error) {
	r := NewReader(data)
	var e Envelope
	if v := r.Byte(); r.Err() == nil && v != Version {
		return Envelope{}, ErrMalformed
	}
	e.Kind = Kind(r.Byte())
	epoch := r.Uvarint()
	from := r.Uvarint()
	if r.Err() == nil && (epoch > math.MaxUint32 || from > math.MaxUint32) {
		return Envelope{}, ErrMalformed
	}
	e.Epoch = uint32(epoch)
	e.From = uint32(from)
	switch e.Kind {
	case KindTree:
		e.Contrib = r.Varint()
	case KindSynopsis:
		e.ContribSketch = r.Bytes()
		e.NCValid = r.Bool()
		if e.NCValid {
			n := r.Count(1)
			if n > 0 {
				base := len(d.topNC)
				for i := 0; i < n; i++ {
					d.topNC = append(d.topNC, int(r.Varint()))
				}
				e.TopNC = d.topNC[base:]
			}
			e.MinNC = int(r.Varint())
		}
	default:
		if r.Err() == nil {
			return Envelope{}, ErrMalformed
		}
	}
	e.Payload = r.Bytes()
	if err := r.Finish(); err != nil {
		return Envelope{}, err
	}
	return e, nil
}
