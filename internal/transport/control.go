package transport

// The UDP backend's control channel: a TCP loopback connection per shard.
// The data plane (datagrams) is lossy by nature; the control plane is the
// reliable spine the barrier is built on — join/assign at startup, flush/done
// at every epoch barrier, stop/bye at shutdown. Frames are 4-byte big-endian
// length + body, with the length capped so a hostile or corrupted peer
// cannot force a giant allocation.
//
// The body comes in two encodings, discriminated by its first byte. The
// cold messages (join, assign, stop, bye — a handful per fleet lifetime)
// stay JSON: self-describing, easy to extend, and their first byte '{' can
// never collide with the binary magics. The hot messages (flush and done —
// two per shard per epoch barrier) are fixed-layout binary frames built on
// the wire package's varint primitives: a done reply for a clean round is
// ~10 bytes against ~60 of JSON, and neither direction touches a reflection
// marshaller on the epoch path. Missing sequence numbers travel as *ranges*
// (first, count): a lost batch datagram takes a contiguous seq run with it,
// so ranges are the natural unit of retransmission — and a fully-lost
// 10k-frame round costs one range, not a 10k-element array.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"tributarydelta/internal/wire"
)

// Control message types.
const (
	ctrlJoin   = "join"   // shard → parent: here I am, my UDP address, my max datagram
	ctrlAssign = "assign" // parent → shard: topology, negotiated datagram size
	ctrlFlush  = "flush"  // parent → shard: barrier — round r had `sent` frames for you
	ctrlDone   = "done"   // shard → parent: barrier reply — receipts, missing ranges, rx deltas
	ctrlStop   = "stop"   // parent → shard: shut down
	ctrlBye    = "bye"    // shard → parent: shutting down
)

// Binary control frame magics: the first body byte of the two hot barrier
// messages. JSON bodies start with '{' (0x7B), so the dispatch in readCtrl
// is a single byte compare.
const (
	ctrlBinFlush byte = 0xF5
	ctrlBinDone  byte = 0xF6
)

// maxCtrlFrame bounds one control frame. The largest legitimate message is
// a done reply carrying per-node receive deltas plus a missing-range list —
// generously under this cap for any supported fleet.
const maxCtrlFrame = 8 << 20

// rxDelta is one node's receive-side accounting for one barrier round,
// reported by its shard in the done reply.
type rxDelta struct {
	// Node is the receiving node id.
	Node int `json:"node"`
	// Frames and Bytes count the unique envelope frames (and their encoded
	// bytes) the node's runtime processed this round.
	Frames int64 `json:"frames"`
	// Bytes is the byte-denominated companion of Frames.
	Bytes int64 `json:"bytes"`
	// Dups counts duplicated frames discarded after deduplication.
	Dups int64 `json:"dups,omitempty"`
}

// seqRange is a contiguous run of missing sequence numbers [First,
// First+Count) in a done reply — the retransmission unit of the barrier.
type seqRange struct {
	// First is the first missing sequence number of the run.
	First int `json:"first"`
	// Count is the run length (always >= 1).
	Count int `json:"count"`
}

// ctrlMsg is the union of all control messages; Type selects which fields
// are meaningful.
type ctrlMsg struct {
	Type string `json:"type"`

	// join fields (shard → parent).
	Shard       int    `json:"shard,omitempty"`
	UDPAddr     string `json:"udpAddr,omitempty"`
	MaxDatagram int    `json:"maxDatagram,omitempty"`

	// assign fields (parent → shard); MaxDatagram carries the negotiated
	// size (the min of both sides' limits).
	Nodes  int `json:"nodes,omitempty"`
	Shards int `json:"shards,omitempty"`

	// flush fields (parent → shard): the barrier round and how many frames
	// (sequence numbers) were sent to this shard in it. done echoes Round.
	Round uint64 `json:"round,omitempty"`
	Sent  int    `json:"sent,omitempty"`

	// done fields (shard → parent). RecvCalls/RecvDatagrams are the shard's
	// cumulative socket-level receive counters, reported so the parent's
	// IOStats can cover both ends of the data plane.
	Received      int64      `json:"received,omitempty"`
	Malformed     int64      `json:"malformed,omitempty"`
	RecvCalls     int64      `json:"recvCalls,omitempty"`
	RecvDatagrams int64      `json:"recvDatagrams,omitempty"`
	Missing       []seqRange `json:"missing,omitempty"`
	Rx            []rxDelta  `json:"rx,omitempty"`
}

// appendBinFlush encodes a flush message: magic, round, sent.
func appendBinFlush(dst []byte, m *ctrlMsg) []byte {
	dst = append(dst, ctrlBinFlush)
	dst = wire.AppendUvarint(dst, m.Round)
	return wire.AppendUvarint(dst, uint64(m.Sent))
}

// decodeBinFlush parses a binary flush body into m (already reset).
func decodeBinFlush(body []byte, m *ctrlMsg) error {
	r := wire.NewReader(body)
	r.Byte() // magic, dispatched on by the caller
	m.Round = r.Uvarint()
	sent := r.Uvarint()
	if r.Err() == nil && sent > wire.MaxDatagramSeq {
		return wire.ErrMalformed
	}
	m.Sent = int(sent)
	m.Type = ctrlFlush
	return r.Finish()
}

// appendBinDone encodes a done reply: magic, round, the round's receipt
// counters, the shard's cumulative socket counters, then the missing-range
// and rx-delta lists, each count-prefixed.
func appendBinDone(dst []byte, m *ctrlMsg) []byte {
	dst = append(dst, ctrlBinDone)
	dst = wire.AppendUvarint(dst, m.Round)
	dst = wire.AppendUvarint(dst, uint64(m.Received))
	dst = wire.AppendUvarint(dst, uint64(m.Malformed))
	dst = wire.AppendUvarint(dst, uint64(m.RecvCalls))
	dst = wire.AppendUvarint(dst, uint64(m.RecvDatagrams))
	dst = wire.AppendUvarint(dst, uint64(len(m.Missing)))
	for _, rng := range m.Missing {
		dst = wire.AppendUvarint(dst, uint64(rng.First))
		dst = wire.AppendUvarint(dst, uint64(rng.Count))
	}
	dst = wire.AppendUvarint(dst, uint64(len(m.Rx)))
	for _, d := range m.Rx {
		dst = wire.AppendUvarint(dst, uint64(d.Node))
		dst = wire.AppendUvarint(dst, uint64(d.Frames))
		dst = wire.AppendUvarint(dst, uint64(d.Bytes))
		dst = wire.AppendUvarint(dst, uint64(d.Dups))
	}
	return dst
}

// decodeBinDone parses a binary done body into m (already reset: scalar
// fields zero, lists empty but possibly holding reusable capacity). Counts
// are validated against the bytes actually present and ranges against the
// bounded sequence space, so a corrupt peer cannot force a huge allocation.
func decodeBinDone(body []byte, m *ctrlMsg) error {
	r := wire.NewReader(body)
	r.Byte() // magic, dispatched on by the caller
	m.Round = r.Uvarint()
	m.Received = int64(r.Uvarint())
	m.Malformed = int64(r.Uvarint())
	m.RecvCalls = int64(r.Uvarint())
	m.RecvDatagrams = int64(r.Uvarint())
	nm := r.Count(2)
	for i := 0; i < nm; i++ {
		first := r.Uvarint()
		count := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if count == 0 || first >= wire.MaxDatagramSeq || count > wire.MaxDatagramSeq-first {
			return wire.ErrMalformed
		}
		m.Missing = append(m.Missing, seqRange{First: int(first), Count: int(count)})
	}
	nr := r.Count(4)
	for i := 0; i < nr; i++ {
		m.Rx = append(m.Rx, rxDelta{
			Node:   int(r.Uvarint()),
			Frames: int64(r.Uvarint()),
			Bytes:  int64(r.Uvarint()),
			Dups:   int64(r.Uvarint()),
		})
	}
	m.Type = ctrlDone
	return r.Finish()
}

// ctrlBufs is one endpoint's reusable control-plane frame scratch: the
// per-round barrier exchange encodes into w and reads into r, so a steady
// run allocates nothing here. The zero value is ready; one goroutine at a
// time may use it.
type ctrlBufs struct{ w, r []byte }

// writeCtrl is ctrlBufs.write with throwaway scratch — for the handshake
// and shutdown messages, which are sent once.
func writeCtrl(conn net.Conn, deadline time.Time, m *ctrlMsg) error {
	return new(ctrlBufs).write(conn, deadline, m)
}

// readCtrl is ctrlBufs.read with throwaway scratch.
func readCtrl(conn net.Conn, deadline time.Time, m *ctrlMsg) error {
	return new(ctrlBufs).read(conn, deadline, m)
}

// write sends one framed control message, honoring the deadline (zero
// means none). Barrier messages take the binary encoding; everything else
// is JSON.
func (b *ctrlBufs) write(conn net.Conn, deadline time.Time, m *ctrlMsg) error {
	buf := append(b.w[:0], 0, 0, 0, 0) // length prefix, patched below
	switch m.Type {
	case ctrlFlush:
		buf = appendBinFlush(buf, m)
	case ctrlDone:
		buf = appendBinDone(buf, m)
	default:
		body, err := json.Marshal(m)
		if err != nil {
			return err
		}
		buf = append(buf, body...)
	}
	b.w = buf
	if len(buf)-4 > maxCtrlFrame {
		return fmt.Errorf("transport: control frame of %d bytes exceeds cap", len(buf)-4)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	if err := conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	_, err := conn.Write(buf)
	return err
}

// read receives one framed control message into m, honoring the deadline
// (zero means none). The advertised length is validated before any
// allocation; the body's first byte selects the binary or JSON decoder. m
// is overwritten, its Missing and Rx lists refilled in place, so a caller
// that reads every reply into one message reuses their storage.
func (b *ctrlBufs) read(conn net.Conn, deadline time.Time, m *ctrlMsg) error {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return err
	}
	if cap(b.r) < 4 {
		b.r = make([]byte, 4, 256)
	}
	hdr := b.r[:4]
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxCtrlFrame {
		return fmt.Errorf("transport: control frame of %d bytes exceeds cap", n)
	}
	if uint32(cap(b.r)) < n {
		b.r = make([]byte, n)
	}
	body := b.r[:n]
	if _, err := io.ReadFull(conn, body); err != nil {
		return err
	}
	*m = ctrlMsg{Missing: m.Missing[:0], Rx: m.Rx[:0]}
	if len(body) == 0 {
		return wire.ErrMalformed
	}
	switch body[0] {
	case ctrlBinFlush:
		return decodeBinFlush(body, m)
	case ctrlBinDone:
		return decodeBinDone(body, m)
	default:
		return json.Unmarshal(body, m)
	}
}
