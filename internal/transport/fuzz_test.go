package transport

// White-box hostile-input battery for the UDP shard receive path, plus the
// re-exec hook that lets process-level tests (the kill-fleet chaos test) use
// this test binary as a tdnode stand-in: when SpawnExec launches it with
// -control/-shard, TestMain runs the shard runtime instead of the test suite.

import (
	"os"
	"strconv"
	"testing"

	"tributarydelta/internal/wire"
)

func TestMain(m *testing.M) {
	// The cmd/tdnode contract, detected positionally so transport.SpawnExec
	// can point at the test binary itself — no separately built binary needed.
	var control string
	shard := 0
	for i, a := range os.Args {
		if i+1 >= len(os.Args) {
			break
		}
		switch a {
		case "-control":
			control = os.Args[i+1]
		case "-shard":
			shard, _ = strconv.Atoi(os.Args[i+1])
		}
	}
	if control != "" {
		if err := RunNode(control, shard); err != nil {
			os.Stderr.WriteString("tdnode(test): " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// checkShardInvariants asserts the properties hostile input must never break:
// bounded dedup state, consistent counters, per-node deltas that sum to the
// unique count.
func checkShardInvariants(t *testing.T, s *shardState) {
	t.Helper()
	if max := wire.MaxDatagramSeq/64 + 1; len(s.seen) > max {
		t.Fatalf("dedup bitset grew to %d words (bound %d)", len(s.seen), max)
	}
	if int64(s.unique) > s.received {
		t.Fatalf("unique %d > received %d", s.unique, s.received)
	}
	var frames int64
	for _, f := range s.rxFrames {
		frames += f
	}
	if frames != int64(s.unique) {
		t.Fatalf("per-node rx deltas sum to %d, unique is %d", frames, s.unique)
	}
	var dups int64
	for _, d := range s.dups {
		dups += d
	}
	if dups+int64(s.unique) != s.received {
		t.Fatalf("unique %d + dups %d != received %d", s.unique, dups, s.received)
	}
}

// retiredSingleFrameMagic is the first byte of the single-frame datagram
// format the data plane no longer speaks; such datagrams must now be
// counted malformed like any other stray packet.
const retiredSingleFrameMagic = 0xD7

// singleFrameDatagram encodes one datagram in the retired single-frame
// layout — magic 0xD7, version, round, seq and receiver uvarints, then the
// frame — so the hostile-input battery keeps covering it.
func singleFrameDatagram(round uint64, seq, to int, frame []byte) []byte {
	dst := []byte{retiredSingleFrameMagic, wire.DatagramVersion}
	dst = wire.AppendUvarint(dst, round)
	dst = wire.AppendUvarint(dst, uint64(seq))
	dst = wire.AppendUvarint(dst, uint64(to))
	return append(dst, frame...)
}

// TestShardReceiveRejectsNonBatch pins the single data-plane framing: any
// datagram that is not a well-formed batch header — the retired 0xD7
// single-frame format, an empty datagram, a stray first byte — is counted
// malformed exactly once and accepts no frame.
func TestShardReceiveRejectsNonBatch(t *testing.T) {
	frame := wire.AppendEnvelope(nil, &wire.Envelope{Kind: wire.KindTree, From: 3, Contrib: 1})
	stray := wire.AppendBatchFrame(wire.AppendDatagramBatch(nil, 1, 0), 5, frame)
	stray[0] = 0x42
	cases := []struct {
		name string
		data []byte
	}{
		{"single-frame", singleFrameDatagram(1, 0, 5, frame)}, // valid in the retired format, node 5 on shard 1
		{"empty", []byte{}},
		{"stray-first-byte", stray},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newShardState(16, 4, 1)
			var dec wire.Decoder
			s.handleBatch(&dec, c.data)
			if s.malformed != 1 || s.unique != 0 || s.received != 0 {
				t.Fatalf("malformed=%d unique=%d received=%d, want 1/0/0", s.malformed, s.unique, s.received)
			}
			for li, n := range s.rxFrames {
				if n != 0 {
					t.Fatalf("local node %d: %d frames accepted", li, n)
				}
			}
			checkShardInvariants(t, s)
		})
	}
}

// FuzzShardReceiveBatch throws arbitrary datagrams — any bytes at all — at
// the shard receive path. The contract under attack: never panic, never
// allocate proportionally to a hostile header field, and keep the round
// accounting consistent no matter what arrives. The batch decoder is
// streaming — a corrupt entry mid-batch must keep every frame accepted
// before it, drop the rest, and count exactly one malformed for the
// truncated tail. Seeds cover well-formed and hostile batches plus the
// retired single-frame format, which must be rejected as malformed.
func FuzzShardReceiveBatch(f *testing.F) {
	frame := wire.AppendEnvelope(nil, &wire.Envelope{Kind: wire.KindTree, From: 3, Contrib: 1})
	batch := wire.AppendDatagramBatch(nil, 1, 0)
	batch = wire.AppendBatchFrame(batch, 5, frame)
	batch = wire.AppendBatchFrame(batch, 9, frame)
	batch = wire.AppendBatchFrame(batch, 13, frame)
	f.Add(batch)                                       // valid three-frame batch, all on shard 1 of 4
	f.Add(batch[:len(batch)-3])                        // truncated mid-entry
	f.Add(append(append([]byte(nil), batch...), 0x06)) // trailing garbage entry
	mixed := wire.AppendDatagramBatch(nil, 1, 4)
	mixed = wire.AppendBatchFrame(mixed, 5, frame)
	mixed = wire.AppendBatchFrame(mixed, 6, frame) // wrong shard
	mixed = wire.AppendBatchFrame(mixed, 9, []byte{0xff, 0xff})
	f.Add(mixed)
	f.Add(wire.AppendBatchFrame(wire.AppendDatagramBatch(nil, 1, wire.MaxDatagramSeq-1), 5, frame)) // last legal seq
	f.Add([]byte{wire.DatagramBatchMagic, wire.DatagramVersion, 0x80, 0x80})                        // truncated varint
	// The retired single-frame format: malformed, whatever it carries.
	f.Add(singleFrameDatagram(1, 0, 5, frame))                               // well-formed, node 5 lives on shard 1 of 4
	f.Add(singleFrameDatagram(1, 0, 6, frame))                               // wrong shard
	f.Add(singleFrameDatagram(1, wire.MaxDatagramSeq-1, 5, frame))           // max seq
	f.Add(singleFrameDatagram(9, 1, 5, []byte{0xff, 0xff}))                  // corrupt envelope
	f.Add(singleFrameDatagram(1, 2, 1<<30, frame))                           // node out of range
	f.Add([]byte{retiredSingleFrameMagic, wire.DatagramVersion, 0x80, 0x80}) // truncated varint
	f.Add(singleFrameDatagram(1, 0, 17, frame))
	f.Add(singleFrameDatagram(1<<30, wire.MaxDatagramSeq-1, 0, nil))
	f.Add([]byte{retiredSingleFrameMagic, wire.DatagramVersion})
	f.Add([]byte{retiredSingleFrameMagic, wire.DatagramVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newShardState(16, 4, 1)
		var dec wire.Decoder
		// Feed the input twice: the second pass exercises the dedup and
		// stale-round branches against whatever state the first pass built.
		for i := 0; i < 2; i++ {
			s.handleBatch(&dec, data)
			dec.Reset()
			checkShardInvariants(t, s)
		}
		// A flush for the current round must survive whatever arrived, and
		// its missing report must be well-formed ranges within [0, sent).
		reply := s.flush(&ctrlMsg{Type: ctrlFlush, Round: s.round, Sent: s.unique})
		if reply.Type != ctrlDone {
			t.Fatalf("flush reply type %q", reply.Type)
		}
		for _, rng := range reply.Missing {
			if rng.Count <= 0 || rng.First < 0 || rng.First+rng.Count > s.unique {
				t.Fatalf("flush reported bogus missing range [%d,%d) with sent=%d",
					rng.First, rng.First+rng.Count, s.unique)
			}
		}
	})
}

// FuzzEnvelopeDecode drives arbitrary bytes through the full receive path as
// the envelope of an otherwise valid one-frame batch datagram: wire.Decoder.Decode on hostile
// input must return an error — never panic, never poison later decodes on the
// same reused decoder — and the shard must count exactly one malformed drop
// or one accepted frame per datagram.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add(wire.AppendEnvelope(nil, &wire.Envelope{Kind: wire.KindTree, From: 2, Contrib: 7}))
	f.Add(wire.AppendEnvelope(nil, &wire.Envelope{
		Kind: wire.KindSynopsis, From: 4,
		ContribSketch: []byte{1, 2, 3}, NCValid: true, TopNC: []int{4, 2}, MinNC: 2, Payload: []byte{9},
	}))
	f.Add([]byte{0x15, 2, 7})       // NC flag on a tree frame
	f.Add([]byte{0x11, 0x82, 0x00}) // non-minimal From
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	good := wire.AppendEnvelope(nil, &wire.Envelope{Kind: wire.KindTree, From: 6, Contrib: 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		s := newShardState(16, 4, 1)
		var dec wire.Decoder
		s.handleBatch(&dec, wire.AppendBatchFrame(wire.AppendDatagramBatch(nil, 1, 0), 5, payload))
		dec.Reset()
		if s.malformed+int64(s.unique) != 1 {
			t.Fatalf("one datagram produced malformed=%d unique=%d", s.malformed, s.unique)
		}
		checkShardInvariants(t, s)
		// The same decoder must remain sound for a subsequent valid frame.
		s.handleBatch(&dec, wire.AppendBatchFrame(wire.AppendDatagramBatch(nil, 1, 1), 5, good))
		if s.malformed+int64(s.unique) != 2 {
			t.Fatalf("decoder poisoned: malformed=%d unique=%d after valid follow-up", s.malformed, s.unique)
		}
	})
}
