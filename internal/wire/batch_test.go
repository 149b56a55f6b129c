package wire

import (
	"bytes"
	"testing"
)

func TestDatagramBatchRoundTrip(t *testing.T) {
	frames := [][]byte{
		AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 12, Contrib: 3}),
		AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 599, Contrib: 1}),
		{},
		bytes.Repeat([]byte{0xab}, 300),
	}
	tos := []int{0, 299, 4, 1<<32 - 1}
	cases := []struct {
		round uint64
		base  int
	}{
		{0, 0},
		{1 << 40, MaxDatagramSeq - len(frames)},
		{42, 127},
	}
	for _, c := range cases {
		enc := AppendDatagramBatch(nil, c.round, c.base)
		if got, want := len(enc), DatagramBatchOverhead(c.round, c.base); got != want {
			t.Errorf("header of (%d,%d) = %d bytes, DatagramBatchOverhead says %d", c.round, c.base, got, want)
		}
		for i, frame := range frames {
			before := len(enc)
			enc = AppendBatchFrame(enc, tos[i], frame)
			if got, want := len(enc)-before, BatchFrameLen(tos[i], len(frame)); got != want {
				t.Errorf("entry %d = %d bytes, BatchFrameLen says %d", i, got, want)
			}
		}
		b, err := DecodeDatagramBatch(enc)
		if err != nil {
			t.Fatalf("decode (%d,%d): %v", c.round, c.base, err)
		}
		if b.Round != c.round || b.Base != c.base {
			t.Fatalf("header round-trip (%d,%d): got (%d,%d)", c.round, c.base, b.Round, b.Base)
		}
		for i := range frames {
			if !b.Next() {
				t.Fatalf("Next()=false at frame %d: %v", i, b.Err())
			}
			if b.Seq() != c.base+i || b.To() != tos[i] || !bytes.Equal(b.Frame(), frames[i]) {
				t.Fatalf("frame %d: seq=%d to=%d frame=%x", i, b.Seq(), b.To(), b.Frame())
			}
		}
		if b.Next() {
			t.Fatal("Next()=true past the last frame")
		}
		if b.Err() != nil || b.Len() != len(frames) {
			t.Fatalf("clean end: err=%v len=%d", b.Err(), b.Len())
		}
	}
}

func TestDatagramBatchDecodeRejects(t *testing.T) {
	good := AppendBatchFrame(AppendDatagramBatch(nil, 3, 4), 5, []byte{1, 2, 3})
	headerBad := [][]byte{
		nil,
		{},
		{DatagramBatchMagic},
		{0xD7, DatagramVersion, 1, 1},  // retired single-frame magic
		{DatagramBatchMagic, 99, 1, 1}, // wrong version
		AppendDatagramBatch(nil, 1, MaxDatagramSeq), // base out of range
	}
	for i, data := range headerBad {
		if _, err := DecodeDatagramBatch(data); err == nil {
			t.Errorf("header case %d: decode accepted %x", i, data)
		}
	}
	entryBad := [][]byte{
		AppendUvarint(AppendDatagramBatch(nil, 1, 0), 7),                       // to without frame
		AppendBytes(AppendUvarint(AppendDatagramBatch(nil, 1, 0), 1<<33), nil), // node out of range
		append(AppendDatagramBatch(nil, 1, 0), 0x80),                           // truncated varint
		AppendUvarint(AppendUvarint(AppendDatagramBatch(nil, 1, 0), 7), 1<<40), // frame length past end
	}
	for i, data := range entryBad {
		b, err := DecodeDatagramBatch(data)
		if err != nil {
			t.Fatalf("entry case %d: header rejected: %v", i, err)
		}
		for b.Next() {
		}
		if b.Err() == nil {
			t.Errorf("entry case %d: iteration accepted %x", i, data)
		}
	}
	// A batch whose implied sequence numbers would leave the bounded space
	// must stop with an error at the overflowing frame, not index past it.
	over := AppendDatagramBatch(nil, 1, MaxDatagramSeq-1)
	over = AppendBatchFrame(over, 0, nil) // seq MaxDatagramSeq-1: fine
	over = AppendBatchFrame(over, 0, nil) // seq MaxDatagramSeq: malformed
	b, err := DecodeDatagramBatch(over)
	if err != nil {
		t.Fatalf("overflow header rejected: %v", err)
	}
	n := 0
	for b.Next() {
		n++
	}
	if n != 1 || b.Err() == nil {
		t.Fatalf("seq overflow: decoded %d frames, err=%v", n, b.Err())
	}
	b, err = DecodeDatagramBatch(good)
	if err != nil {
		t.Fatalf("control case rejected: %v", err)
	}
	for b.Next() {
	}
	if b.Err() != nil {
		t.Fatalf("control case iteration failed: %v", b.Err())
	}
}

// FuzzDatagramBatchDecode feeds arbitrary bytes to the batch decoder on the
// untrusted UDP receive path: header decode and frame iteration must never
// panic, every accepted identifier must be in range (so the receive-side
// dedup bitset stays bounded), and an accepted batch must survive a
// re-encode/re-decode round trip unchanged. (Byte-level canonicality is NOT
// guaranteed: uvarint readers accept non-minimal encodings.)
func FuzzDatagramBatchDecode(f *testing.F) {
	frame := AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 4, Contrib: 2})
	seed := AppendDatagramBatch(nil, 1, 0)
	seed = AppendBatchFrame(seed, 17, frame)
	seed = AppendBatchFrame(seed, 3, nil)
	f.Add(seed)
	f.Add(AppendDatagramBatch(nil, 1<<30, MaxDatagramSeq-1))
	f.Add([]byte{DatagramBatchMagic, DatagramVersion})
	f.Add([]byte{DatagramBatchMagic, DatagramVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(AppendBatchFrame(AppendDatagramBatch(nil, 0, 1<<20-2), 0, []byte{1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeDatagramBatch(data)
		if err != nil {
			return
		}
		if b.Base < 0 || b.Base >= MaxDatagramSeq {
			t.Fatalf("accepted out-of-range base: %d", b.Base)
		}
		re := AppendDatagramBatch(nil, b.Round, b.Base)
		var tos []int
		var frames [][]byte
		for b.Next() {
			if b.Seq() != b.Base+len(tos) || b.Seq() >= MaxDatagramSeq || b.To() < 0 {
				t.Fatalf("accepted out-of-range frame: seq=%d to=%d", b.Seq(), b.To())
			}
			re = AppendBatchFrame(re, b.To(), b.Frame())
			tos = append(tos, b.To())
			frames = append(frames, append([]byte(nil), b.Frame()...))
		}
		if b.Err() != nil {
			return // malformed tail: nothing more to check
		}
		b2, err := DecodeDatagramBatch(re)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		for i := range tos {
			if !b2.Next() {
				t.Fatalf("re-encoded batch lost frame %d: %v", i, b2.Err())
			}
			if b2.To() != tos[i] || !bytes.Equal(b2.Frame(), frames[i]) {
				t.Fatalf("round trip changed frame %d", i)
			}
		}
		if b2.Next() || b2.Err() != nil {
			t.Fatal("round trip changed the frame count")
		}
	})
}
