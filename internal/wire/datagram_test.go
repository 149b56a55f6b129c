package wire

import (
	"bytes"
	"testing"
)

func TestDatagramRoundTrip(t *testing.T) {
	frame := AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 12, Contrib: 3})
	cases := []struct {
		round uint64
		seq   int
		to    int
	}{
		{0, 0, 0},
		{1, 0, 299},
		{1 << 40, MaxDatagramSeq - 1, 1<<32 - 1},
		{42, 127, 128},
	}
	for _, c := range cases {
		enc := AppendDatagram(nil, c.round, c.seq, c.to, frame)
		if got, want := len(enc)-len(frame), DatagramOverhead(c.round, c.seq, c.to); got != want {
			t.Errorf("overhead of (%d,%d,%d) = %d, DatagramOverhead says %d", c.round, c.seq, c.to, got, want)
		}
		d, err := DecodeDatagram(enc)
		if err != nil {
			t.Fatalf("decode (%d,%d,%d): %v", c.round, c.seq, c.to, err)
		}
		if d.Round != c.round || d.Seq != c.seq || d.To != c.to || !bytes.Equal(d.Frame, frame) {
			t.Fatalf("round-trip (%d,%d,%d): got %+v", c.round, c.seq, c.to, d)
		}
	}
}

func TestDatagramDecodeRejects(t *testing.T) {
	frame := AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 2, Contrib: 1})
	good := AppendDatagram(nil, 3, 4, 5, frame)
	bad := [][]byte{
		nil,
		{},
		{DatagramMagic},
		{0x00, DatagramVersion, 1, 1, 1}, // wrong magic
		{DatagramMagic, 99, 1, 1, 1},     // wrong version
		good[:3],                         // truncated header
		AppendDatagram(nil, 1, MaxDatagramSeq, 2, frame), // seq out of range
		AppendDatagram(nil, 1, 2, 1<<33, frame),          // node out of range
	}
	for i, data := range bad {
		if _, err := DecodeDatagram(data); err == nil {
			t.Errorf("case %d: decode accepted %x", i, data)
		}
	}
	if _, err := DecodeDatagram(good); err != nil {
		t.Fatalf("control case rejected: %v", err)
	}
}

// FuzzDatagramDecode feeds arbitrary bytes to the first decoder on the
// untrusted UDP receive path: it must never panic, every identifier it
// accepts must be in range, and an accepted datagram must survive a
// re-encode/re-decode round trip unchanged. (Byte-level canonicality is NOT
// guaranteed: uvarint readers accept non-minimal encodings.)
func FuzzDatagramDecode(f *testing.F) {
	frame := AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 4, Contrib: 2})
	f.Add(AppendDatagram(nil, 1, 0, 17, frame))
	f.Add(AppendDatagram(nil, 1<<30, MaxDatagramSeq-1, 0, nil))
	f.Add([]byte{DatagramMagic, DatagramVersion})
	f.Add([]byte{DatagramMagic, DatagramVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDatagram(data)
		if err != nil {
			return
		}
		if d.Seq < 0 || d.Seq >= MaxDatagramSeq || d.To < 0 {
			t.Fatalf("accepted out-of-range identifiers: %+v", d)
		}
		re := AppendDatagram(nil, d.Round, d.Seq, d.To, d.Frame)
		d2, err := DecodeDatagram(re)
		if err != nil {
			t.Fatalf("re-encoded datagram rejected: %v", err)
		}
		if d2.Round != d.Round || d2.Seq != d.Seq || d2.To != d.To || !bytes.Equal(d2.Frame, d.Frame) {
			t.Fatalf("round trip changed the datagram: %+v != %+v", d, d2)
		}
	})
}
