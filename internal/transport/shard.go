package transport

// The UDP backend's shard runtime: one process (or goroutine) hosting the
// receive side of a contiguous residue class of nodes (node v lives on
// shard v mod shards). The shard listens on its own UDP socket, decodes and
// deduplicates every arriving frame — each datagram is a coalesced batch of
// frames (wire's 0xD8 framing) — and answers the parent's barrier flushes
// over the control channel with receipts, missing sequence ranges and
// per-node receive deltas.
//
// Everything read from the UDP socket is untrusted: the datagram header,
// the batch entries and the enclosed envelopes are decoded with the
// bounds-checked wire readers, and any failure — bad magic, truncated
// varint, out-of-range node, corrupt envelope — increments a malformed
// counter and drops the frame (a hostile entry inside a batch drops only
// itself; the rest of the batch is still honored). The receive path must
// never panic on arbitrary bytes; FuzzShardReceiveBatch pins this.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"tributarydelta/internal/transport/batchio"
	"tributarydelta/internal/wire"
)

// Shard runtime timing: how long a flush waits for in-flight datagrams
// before reporting them missing (the parent then retransmits and
// re-flushes), and the I/O deadline on control replies.
const (
	detFlushWait  = 25 * time.Millisecond
	ctrlIOTimeout = 10 * time.Second
	dialNodeWait  = 10 * time.Second
)

// RunNode hosts one UDP shard: it dials the parent's control address,
// joins, and serves the shard until the parent sends stop (returning nil)
// or the control connection fails (returning the error). It is the entire
// body of the cmd/tdnode binary and of the in-process default spawner.
func RunNode(controlAddr string, shard int) error {
	conn, err := net.DialTimeout("tcp", controlAddr, dialNodeWait)
	if err != nil {
		return fmt.Errorf("transport: shard %d dial control %s: %w", shard, controlAddr, err)
	}
	defer conn.Close()
	return serveShard(conn, shard)
}

// shardState is one shard's receive-side state for the current barrier
// round. The receive goroutine and the control loop share it under mu;
// arrival carries a non-blocking wakeup per accepted datagram so a flush
// can wait for stragglers without polling.
type shardState struct {
	shard, shards, nodes int
	udp                  *net.UDPConn
	// io accumulates the socket-level receive counters, reported to the
	// parent in every done reply.
	io batchio.Counters

	mu      sync.Mutex
	arrival chan struct{}
	round   uint64
	// seen is the round's dedup bitset over sequence numbers; capacity is
	// bounded by wire.MaxDatagramSeq regardless of input.
	seen     []uint64
	unique   int
	received int64
	// rxFrames/rxBytes/dups are per-local-node deltas for the round,
	// indexed by v/shards.
	rxFrames, rxBytes, dups []int64
	malformed               int64
	stale                   int64

	// reply and timer are the control loop's reusable barrier scratch: the
	// done message (its Missing/Rx lists refilled in place each flush) and
	// the arrival-wait timer. Only the control goroutine touches them.
	reply ctrlMsg
	timer *time.Timer
}

// localCount returns how many nodes of [0, nodes) live on this shard.
func localCount(nodes, shards, shard int) int {
	if shard >= nodes {
		return 0
	}
	return (nodes - shard + shards - 1) / shards
}

// serveShard runs the shard protocol over an established control
// connection: join, receive, answer flushes, stop.
func serveShard(conn net.Conn, shard int) error {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fmt.Errorf("transport: shard %d listen udp: %w", shard, err)
	}
	defer udp.Close()
	_ = udp.SetReadBuffer(1 << 22)

	join := ctrlMsg{Type: ctrlJoin, Shard: shard, UDPAddr: udp.LocalAddr().String(), MaxDatagram: wire.MaxUDPPayload}
	//lint:ignore determinism control-plane I/O deadline; join timing never reaches the epoch path
	if err := writeCtrl(conn, time.Now().Add(ctrlIOTimeout), &join); err != nil {
		return fmt.Errorf("transport: shard %d join: %w", shard, err)
	}
	var assign ctrlMsg
	//lint:ignore determinism control-plane I/O deadline; join timing never reaches the epoch path
	if err := readCtrl(conn, time.Now().Add(ctrlIOTimeout), &assign); err != nil {
		return fmt.Errorf("transport: shard %d await assign: %w", shard, err)
	}
	if assign.Type != ctrlAssign || assign.Nodes <= 0 || assign.Shards <= 0 || shard >= assign.Shards {
		return fmt.Errorf("transport: shard %d got invalid assignment %+v", shard, assign)
	}
	s := newShardState(assign.Nodes, assign.Shards, shard)
	s.udp = udp

	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		s.receive()
	}()

	var bufs ctrlBufs
	var m ctrlMsg
	for {
		if err := bufs.read(conn, time.Time{}, &m); err != nil {
			udp.Close()
			<-recvDone
			return fmt.Errorf("transport: shard %d control channel: %w", shard, err)
		}
		switch m.Type {
		case ctrlFlush:
			reply := s.flush(&m)
			//lint:ignore determinism control-plane I/O deadline; barrier reply timing never reaches the epoch path
			if err := bufs.write(conn, time.Now().Add(ctrlIOTimeout), reply); err != nil {
				udp.Close()
				<-recvDone
				return fmt.Errorf("transport: shard %d flush reply: %w", shard, err)
			}
		case ctrlStop:
			//lint:ignore determinism shutdown I/O deadline; teardown timing never reaches the epoch path
			_ = writeCtrl(conn, time.Now().Add(ctrlIOTimeout), &ctrlMsg{Type: ctrlBye})
			udp.Close()
			<-recvDone
			return nil
		default:
			// Unknown control messages are skipped: the reliable channel is
			// parent-owned, so tolerance here only buys forward compatibility.
		}
	}
}

// newShardState builds the receive-side state for one shard assignment.
func newShardState(nodes, shards, shard int) *shardState {
	locals := localCount(nodes, shards, shard)
	return &shardState{
		shard: shard, shards: shards, nodes: nodes,
		arrival:  make(chan struct{}, 1),
		rxFrames: make([]int64, locals),
		rxBytes:  make([]int64, locals),
		dups:     make([]int64, locals),
	}
}

// receive drains the UDP socket until it closes, a batch of datagrams per
// syscall, into pooled buffers. One decoder serves the whole loop, reset
// per frame.
func (s *shardState) receive() {
	rcv := batchio.NewReceiver(s.udp, &s.io)
	var dec wire.Decoder
	for {
		n, err := rcv.Recv()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			s.handleBatch(&dec, rcv.Datagram(i))
		}
	}
}

// handleBatch validates, deduplicates and accounts every frame of one
// datagram of arbitrary (untrusted) bytes. Anything that is not a
// well-formed batch header — wrong magic, empty, truncated — counts
// malformed once; a hostile entry drops only itself (counted malformed); a
// malformed tail after the last decodable entry counts once. Nothing here
// may panic or allocate proportionally to a hostile header field. The whole
// batch shares one round check — the parent never mixes rounds within a
// datagram, and a straggler batch from a superseded round is counted stale
// once.
//
//td:hotpath
func (s *shardState) handleBatch(dec *wire.Decoder, data []byte) {
	b, err := wire.DecodeDatagramBatch(data)
	if err != nil {
		s.addMalformed()
		return
	}
	s.mu.Lock()
	if !s.enterRoundLocked(b.Round) {
		s.mu.Unlock()
		return
	}
	accepted := 0
	for b.Next() {
		if !s.frameOK(dec, b.To(), b.Frame()) {
			s.malformed++
			continue
		}
		s.acceptLocked(b.Seq(), b.To(), len(b.Frame()))
		accepted++
	}
	if b.Err() != nil {
		s.malformed++
	}
	s.mu.Unlock()
	if accepted > 0 {
		s.wake()
	}
}

// frameOK validates one frame's addressing and envelope: the receiver must
// be a node of this shard and the envelope must decode with an in-range
// sender. The decoder is reset after each use, so its arena never outlives
// the frame.
//
//td:hotpath
func (s *shardState) frameOK(dec *wire.Decoder, to int, frame []byte) bool {
	if to >= s.nodes || to%s.shards != s.shard {
		return false
	}
	env, err := dec.Decode(frame)
	ok := err == nil && int(env.From) < s.nodes
	dec.Reset()
	return ok
}

// enterRoundLocked folds a datagram's round into the shard's: a straggler
// from a superseded round is counted stale and rejected (its barrier
// already closed), a newer round resets the state. Callers hold mu.
func (s *shardState) enterRoundLocked(round uint64) bool {
	switch {
	case round < s.round:
		s.stale++
		return false
	case round > s.round:
		s.resetRoundLocked(round)
	}
	return true
}

// acceptLocked deduplicates and accounts one validated frame. Callers hold
// mu; the caller guarantees seq < wire.MaxDatagramSeq (the decoders bound
// it), so the bitset stays bounded.
//
//td:hotpath
func (s *shardState) acceptLocked(seq, to, frameLen int) {
	s.received++
	w, bit := seq>>6, uint64(1)<<(uint(seq)&63)
	for w >= len(s.seen) {
		s.seen = append(s.seen, 0)
	}
	li := to / s.shards
	if s.seen[w]&bit != 0 {
		s.dups[li]++
	} else {
		s.seen[w] |= bit
		s.unique++
		s.rxFrames[li]++
		s.rxBytes[li] += int64(frameLen)
	}
}

// wake nudges a waiting flush without blocking the receive loop.
func (s *shardState) wake() {
	select {
	case s.arrival <- struct{}{}:
	default:
	}
}

// addMalformed counts one dropped hostile/corrupt datagram.
func (s *shardState) addMalformed() {
	s.mu.Lock()
	s.malformed++
	s.mu.Unlock()
}

// resetRoundLocked advances to a new barrier round, discarding the previous
// round's dedup and delta state (already reported, or empty). Callers hold mu.
func (s *shardState) resetRoundLocked(round uint64) {
	s.round = round
	for i := range s.seen {
		s.seen[i] = 0
	}
	s.unique = 0
	s.received = 0
	for i := range s.rxFrames {
		s.rxFrames[i] = 0
		s.rxBytes[i] = 0
		s.dups[i] = 0
	}
}

// flush answers one barrier flush: wait briefly for the round's traffic to
// arrive, then report what did. A reply that lists missing sequence ranges
// makes the parent retransmit and re-flush, so the barrier converges to
// exactly-once; only the terminal reply, with nothing missing, carries the
// round's per-node receive deltas. The returned message is the shard's
// reusable reply scratch, valid until the next flush.
func (s *shardState) flush(m *ctrlMsg) *ctrlMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Round > s.round {
		s.resetRoundLocked(m.Round)
	}
	if m.Round < s.round {
		// A stale flush for a superseded round: nothing left to report.
		return &ctrlMsg{Type: ctrlDone, Round: m.Round}
	}
	if m.Sent > wire.MaxDatagramSeq {
		m.Sent = wire.MaxDatagramSeq
	}
	//lint:ignore determinism barrier liveness deadline; the barrier waits for exactly-once receipt, timing only bounds the wait
	deadline := time.Now().Add(detFlushWait)
	for s.unique < m.Sent {
		if !s.waitArrivalLocked(deadline) {
			break
		}
	}
	io := s.io.Snapshot()
	reply := &s.reply
	*reply = ctrlMsg{
		Type: ctrlDone, Round: m.Round,
		Received: s.received, Malformed: s.malformed,
		RecvCalls: io.RecvCalls, RecvDatagrams: io.RecvDatagrams,
		Missing: reply.Missing[:0], Rx: reply.Rx[:0],
	}
	if s.unique < m.Sent {
		// Collapse the missing sequence numbers into maximal runs: a lost
		// batch datagram takes a contiguous range with it, so the list stays
		// short even when whole datagrams vanish.
		run := 0
		for seq := 0; seq < m.Sent; seq++ {
			if w := seq >> 6; w >= len(s.seen) || s.seen[w]&(uint64(1)<<(uint(seq)&63)) == 0 {
				run++
				continue
			}
			if run > 0 {
				reply.Missing = append(reply.Missing, seqRange{First: seq - run, Count: run})
				run = 0
			}
		}
		if run > 0 {
			reply.Missing = append(reply.Missing, seqRange{First: m.Sent - run, Count: run})
		}
	}
	if len(reply.Missing) == 0 {
		// Terminal reply: attach the round's per-node receive deltas. (A
		// reply with missing ranges triggers a resend and a re-flush; the
		// parent applies deltas only from the terminal one.)
		for li := range s.rxFrames {
			if s.rxFrames[li] == 0 && s.dups[li] == 0 {
				continue
			}
			reply.Rx = append(reply.Rx, rxDelta{
				Node:   s.shard + li*s.shards,
				Frames: s.rxFrames[li],
				Bytes:  s.rxBytes[li],
				Dups:   s.dups[li],
			})
		}
	}
	return reply
}

// waitArrivalLocked releases mu, waits for either a datagram arrival or the
// deadline, and reacquires mu. It reports whether an arrival (rather than
// the deadline) woke it; the caller re-evaluates its exit condition after
// every wakeup.
func (s *shardState) waitArrivalLocked(deadline time.Time) bool {
	//lint:ignore determinism condition-wait timeout plumbing; wakeup timing never reaches the epoch path
	wait := time.Until(deadline)
	if wait <= 0 {
		return false
	}
	s.mu.Unlock()
	defer s.mu.Lock()
	if s.timer == nil {
		s.timer = time.NewTimer(wait)
	} else {
		s.timer.Reset(wait)
	}
	select {
	case <-s.arrival:
		// Stop leaves nothing in the channel for the next Reset to trip
		// over (Go 1.23 timer semantics).
		s.timer.Stop()
		return true
	case <-s.timer.C:
		return false
	}
}
