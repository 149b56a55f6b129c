package quantile

import (
	"fmt"
	"slices"

	"tributarydelta/internal/wire"
)

// Wire codec. A summary travels as N, its accumulated error fraction, and
// the entries in value order. Rank bounds are monotone, so they are encoded
// as deltas: RMin against the previous entry's RMin, RMax against the
// entry's own RMin — small varints for realistic summaries.

// AppendWire appends the lossless wire encoding of the summary to dst.
func (s *Summary) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(s.N))
	dst = wire.AppendFloat64(dst, s.Eps)
	dst = wire.AppendUvarint(dst, uint64(len(s.Entries)))
	prevRMin := int64(0)
	for _, e := range s.Entries {
		dst = wire.AppendFloat64(dst, e.V)
		dst = wire.AppendVarint(dst, e.RMin-prevRMin)
		dst = wire.AppendUvarint(dst, uint64(e.RMax-e.RMin))
		prevRMin = e.RMin
	}
	return dst
}

// DecodeWireSummary parses a summary encoded by AppendWire.
func DecodeWireSummary(data []byte) (*Summary, error) {
	r := wire.NewReader(data)
	s, err := ReadWire(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadWire parses one summary from a reader positioned at its first byte —
// the form used when a summary is one field of a larger message (the
// Quantiles aggregate's tree partial). The reader is left positioned after
// the summary; callers compose further fields or Finish.
func ReadWire(r *wire.Reader) (*Summary, error) {
	s := &Summary{}
	if err := ReadWireInto(r, s); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadWireInto is ReadWire decoding into a recycled summary: dst is fully
// overwritten (on error its contents are unspecified), and nothing allocates
// once its entry array has reached the decoded length.
func ReadWireInto(r *wire.Reader, dst *Summary) error {
	dst.N = int64(r.Uvarint())
	dst.Eps = r.Float64()
	n := r.Count(3) // value + two rank fields, >= 1 byte each
	dst.Entries = slices.Grow(dst.Entries[:0], n)[:n]
	prevRMin := int64(0)
	prevV := 0.0
	for i := range dst.Entries {
		v := r.Float64()
		rmin := prevRMin + r.Varint()
		rmax := rmin + int64(r.Uvarint())
		if r.Err() == nil && i > 0 && v < prevV { // canonical form is V-ascending
			return fmt.Errorf("quantile: entries out of order: %w", wire.ErrMalformed)
		}
		dst.Entries[i] = Entry{V: v, RMin: rmin, RMax: rmax}
		prevRMin = rmin
		prevV = v
	}
	if err := r.Err(); err != nil {
		return err
	}
	if dst.N < 0 {
		return fmt.Errorf("quantile: negative N: %w", wire.ErrMalformed)
	}
	return nil
}
