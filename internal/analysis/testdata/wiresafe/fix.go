// Package wirefix exercises the wiresafe analyzer: raw buffer access in
// receive-path functions, the non-minimal-varint canonicality bug class,
// and the append-codec return contract are reported; reads through the
// sticky-error wire.Reader and methods of a Reader type are not. The
// fixture is loaded under an import path ending in internal/wire so the
// wire-internal read* rule applies too.
package wirefix

import (
	"encoding/binary"

	"tributarydelta/internal/wire"
)

// DecodeHeader reaches into the raw buffer instead of draining a Reader.
func DecodeHeader(data []byte) (byte, []byte) {
	v := data[0]     // want "raw byte indexing data\[0\]"
	rest := data[1:] // want "raw byte slicing data\[1:\]"
	return v, rest
}

// DecodeCount reproduces the canonicality bug class fixed in the varint
// hardening pass: binary.Uvarint accepts non-minimal encodings, so two
// distinct byte strings decode to the same value and break canonical
// re-encoding checks. The diagnostic names the readers that reject them.
func DecodeCount(data []byte) uint64 {
	v, _ := binary.Uvarint(data) // want "binary\.Uvarint accepts non-minimal varint encodings .*; use wire\.Reader\.MinimalUvarint/MinimalVarint"
	return v
}

// readTail is receive-path by the wire-internal read* naming rule.
func readTail(data []byte) byte {
	return data[len(data)-1] // want "raw byte indexing"
}

// AppendHeader takes an append-style buffer but drops the grown slice.
func AppendHeader(dst []byte, v byte) { // want "append-style codec AppendHeader"
	_ = append(dst, v)
}

// AppendCount returns the appended slice — the contract shape.
func AppendCount(dst []byte, v uint64) []byte {
	return wire.AppendUvarint(dst, v)
}

// DecodeSafe drains the frame through the sticky-error reader's minimal
// varint reader; no raw access, nothing reported.
func DecodeSafe(data []byte) (uint64, error) {
	r := wire.NewReader(data)
	v := r.MinimalUvarint()
	return v, r.Err()
}

// DecodeBatchDispatch mirrors the tempting shortcut on the batch receive
// path: dispatching on the datagram magic by raw indexing instead of
// draining the Reader.
func DecodeBatchDispatch(data []byte) ([]byte, bool) {
	if data[0] != 0xD8 { // want "raw byte indexing data\[0\]"
		return nil, false
	}
	return data[1:], true // want "raw byte slicing data\[1:\]"
}

// Batch mirrors the wire.DatagramBatch iterator: the header decode hands
// back a value holding the sticky-error Reader and Next drains entries
// through it — the sanctioned batch-decoder shape, nothing reported.
type Batch struct {
	r     *wire.Reader
	base  uint64
	n     int
	frame []byte
}

// DecodeBatch parses a batch header; every read goes through the Reader.
func DecodeBatch(data []byte) (Batch, error) {
	r := wire.NewReader(data)
	if r.Byte() != 0xD8 && r.Err() == nil {
		return Batch{}, wire.ErrMalformed
	}
	b := Batch{r: r, base: r.Uvarint()}
	return b, r.Err()
}

// Next advances to the next length-prefixed entry through the reader.
func (b *Batch) Next() bool {
	if b.r.Remaining() == 0 {
		return false
	}
	b.frame = b.r.Bytes()
	if b.r.Err() != nil {
		return false
	}
	b.n++
	return true
}

// Reader is a fixture sticky-error reader; its methods are the guarded
// decode surface, so raw indexing inside them is exempt.
type Reader struct {
	buf []byte
	off int
}

// ReadByte indexes the reader's own buffer — exempt as a Reader method.
func (r *Reader) ReadByte() byte {
	b := r.buf[r.off]
	r.off++
	return b
}

var _ = readTail
