package wire

import (
	"bytes"
	"math"
	"testing"
)

func TestWords(t *testing.T) {
	cases := []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {3, 1}, {4, 1}, {5, 2}, {8, 2}, {160, 40},
	}
	for _, c := range cases {
		if got := Words(c.n); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<32 - 1, 1 << 40, math.MaxUint64}
	for _, v := range vals {
		buf := AppendUvarint(nil, v)
		r := NewReader(buf)
		if got := r.Uvarint(); got != v || r.Finish() != nil {
			t.Errorf("uvarint %d -> %d (err %v)", v, got, r.Err())
		}
		r = NewReader(buf)
		if got := r.MinimalUvarint(); got != v || r.Finish() != nil {
			t.Errorf("minimal uvarint %d -> %d (err %v)", v, got, r.Err())
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 63, -64, 64, -65, 1 << 30, -(1 << 30), math.MaxInt64, math.MinInt64}
	for _, v := range vals {
		buf := AppendVarint(nil, v)
		r := NewReader(buf)
		if got := r.Varint(); got != v || r.Finish() != nil {
			t.Errorf("varint %d -> %d (err %v)", v, got, r.Err())
		}
		r = NewReader(buf)
		if got := r.MinimalVarint(); got != v || r.Finish() != nil {
			t.Errorf("minimal varint %d -> %d (err %v)", v, got, r.Err())
		}
	}
}

func TestSmallNegativeVarintsStaySmall(t *testing.T) {
	if n := len(AppendVarint(nil, -1)); n != 1 {
		t.Fatalf("-1 encoded to %d bytes, want 1 (zigzag)", n)
	}
}

func TestFloat64RoundTripExact(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 25, 123.456, 1e-300, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, v := range vals {
		buf := AppendFloat64(nil, v)
		r := NewReader(buf)
		got := r.Float64()
		if r.Finish() != nil || math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("float %v (%x) -> %v (%x)", v, math.Float64bits(v), got, math.Float64bits(got))
		}
	}
}

func TestFloat64CompactForSimpleValues(t *testing.T) {
	// The whole point of the reversed-varint float encoding: typical sensor
	// readings fit one 32-bit word.
	for _, v := range []float64{0, 1, 25, 100, 1000, 2.5} {
		if n := len(AppendFloat64(nil, v)); n > BytesPerWord {
			t.Errorf("float %v encoded to %d bytes, want <= %d", v, n, BytesPerWord)
		}
	}
}

func TestBytes(t *testing.T) {
	buf := AppendBytes(nil, []byte("hello"))
	buf = AppendBytes(buf, nil)
	r := NewReader(buf)
	if got := r.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("bytes = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty bytes = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyErrors(t *testing.T) {
	r := NewReader([]byte{0x80}) // truncated varint
	if r.Uvarint() != 0 || r.Err() != ErrTruncated {
		t.Fatal("expected truncation")
	}
	// Every later read stays zero with the first error.
	if r.Byte() != 0 || r.Float64() != 0 || r.Bytes() != nil || r.Take(1) != nil {
		t.Fatal("reads after error must be zero")
	}
	if r.Err() != ErrTruncated {
		t.Fatalf("sticky error lost: %v", r.Err())
	}
}

func TestReaderMalformed(t *testing.T) {
	// 11-byte varint: overflow.
	r := NewReader(bytes.Repeat([]byte{0x80}, 11))
	r.Uvarint()
	if r.Err() != ErrMalformed {
		t.Fatalf("overlong varint: %v", r.Err())
	}
	// Trailing garbage.
	r = NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Finish(); err != ErrMalformed {
		t.Fatalf("trailing byte: %v", err)
	}
	// Hostile count: claims 1<<40 elements in 2 bytes.
	r = NewReader(append(AppendUvarint(nil, 1<<40), 0, 0))
	r.Count(1)
	if r.Err() != ErrMalformed {
		t.Fatalf("hostile count: %v", r.Err())
	}
	r = NewReader(append(AppendUvarint(nil, 1<<40), 0, 0))
	r.MinimalCount(1)
	if r.Err() != ErrMalformed {
		t.Fatalf("hostile minimal count: %v", r.Err())
	}
	// A redundant zero final group: the plain readers take it, the minimal
	// ones do not.
	for _, enc := range [][]byte{{0x80, 0x00}, {0x85, 0x00}, {0x81, 0x80, 0x00}} {
		r = NewReader(enc)
		if r.Uvarint(); r.Finish() != nil {
			t.Fatalf("Uvarint rejected %x: %v", enc, r.Err())
		}
		for name, read := range map[string]func(*Reader){
			"MinimalUvarint": func(r *Reader) { r.MinimalUvarint() },
			"MinimalVarint":  func(r *Reader) { r.MinimalVarint() },
			"MinimalCount":   func(r *Reader) { r.MinimalCount(0) },
		} {
			r = NewReader(append(enc, make([]byte, 8)...))
			if read(r); r.Err() != ErrMalformed {
				t.Fatalf("%s on %x: %v, want ErrMalformed", name, enc, r.Err())
			}
		}
	}
}

func TestReaderPeek(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if got := r.Peek(); !bytes.Equal(got, []byte{2, 3}) || r.Remaining() != 2 {
		t.Fatalf("Peek = %x with %d remaining, want 0203 unconsumed", got, r.Remaining())
	}
	if r.Take(3); r.Peek() != nil {
		t.Fatal("Peek after a failed read must be nil")
	}
}

func TestAppendReusesCapacity(t *testing.T) {
	buf := make([]byte, 0, 64)
	out := AppendUvarint(buf, 300)
	out = AppendFloat64(out, 25)
	out = AppendBytes(out, []byte{1})
	if &buf[:1][0] != &out[:1][0] {
		t.Fatal("append-style encoders must reuse the caller's buffer")
	}
}

func TestEnvelopeTreeRoundTrip(t *testing.T) {
	e := &Envelope{Kind: KindTree, From: 17, Contrib: 123, Payload: []byte{9, 8, 7}}
	buf := AppendEnvelope(nil, e)
	// Header (version 1, kind 1), From, zigzag Contrib, then the payload to
	// the end of the frame.
	if want := []byte{0x11, 17, 0xF6, 0x01, 9, 8, 7}; !bytes.Equal(buf, want) {
		t.Fatalf("tree frame % x, want % x", buf, want)
	}
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindTree || got.From != 17 || got.Contrib != 123 || got.NCValid ||
		!bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestEnvelopeSynopsisRoundTrip(t *testing.T) {
	e := &Envelope{
		Kind: KindSynopsis, From: 3,
		ContribSketch: []byte{1, 2, 3, 4},
		TopNC:         []int{9, 4, 0},
		MinNC:         -1,
		NCValid:       true,
		Payload:       []byte{0xAA},
	}
	buf := AppendEnvelope(nil, e)
	// Header (version 1, NC flag, kind 2), From, the length-prefixed sketch,
	// the NC count, zigzag TopNC and MinNC, then the payload.
	if want := []byte{0x16, 3, 4, 1, 2, 3, 4, 3, 18, 8, 0, 1, 0xAA}; !bytes.Equal(buf, want) {
		t.Fatalf("synopsis frame % x, want % x", buf, want)
	}
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.NCValid || got.MinNC != -1 || len(got.TopNC) != 3 || got.TopNC[0] != 9 ||
		!bytes.Equal(got.ContribSketch, e.ContribSketch) || !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
	// Without NC stats the flag is clear and the frame carries no NC bytes.
	e2 := &Envelope{Kind: KindSynopsis, From: 3, ContribSketch: []byte{1}, Payload: []byte{2}}
	if got, want := AppendEnvelope(nil, e2), []byte{0x12, 3, 1, 1, 2}; !bytes.Equal(got, want) {
		t.Fatalf("NC-free synopsis frame % x, want % x", got, want)
	}
}

// TestEnvelopeRejectsBadFrames pins what the envelope decoder refuses: a cut
// anywhere before the payload, and every non-canonical header or varint.
// The payload runs to the end of the frame, so a cut inside it or a trailing
// byte reaches the payload codec, which rejects it (the runner package's
// TestPayloadCodecsRejectDamagedFrames).
func TestEnvelopeRejectsBadFrames(t *testing.T) {
	good := AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 2, Contrib: 3, Payload: []byte{7}})
	payloadAt := len(good) - 1
	for i := 0; i < payloadAt; i++ {
		if _, err := DecodeEnvelope(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	for _, frame := range [][]byte{good[:payloadAt], append(append([]byte{}, good...), 0)} {
		e, err := DecodeEnvelope(frame)
		if err != nil || !bytes.Equal(e.Payload, frame[payloadAt:]) {
			t.Fatalf("% x: payload %x (%v), want the frame's tail", frame, e.Payload, err)
		}
	}
	over := AppendVarint(AppendUvarint([]byte{0x11}, 1<<32), 3)
	hostile := AppendUvarint([]byte{0x16, 2, 1, 5}, 1<<40)
	for name, frame := range map[string][]byte{
		"version 0":                 {0x01, 2, 6},
		"version 2":                 {0x21, 2, 6},
		"reserved bit":              {0x19, 2, 6},
		"kind 0":                    {0x10, 2, 6},
		"kind 3":                    {0x13, 2, 6},
		"NC flag on a tree frame":   {0x15, 2, 6},
		"From beyond uint32":        over,
		"non-minimal From":          {0x11, 0x82, 0x00, 6},
		"non-minimal Contrib":       {0x11, 2, 0x86, 0x00},
		"non-minimal sketch length": {0x12, 2, 0x81, 0x00, 5},
		"non-minimal NC count":      {0x16, 2, 1, 5, 0x81, 0x00, 2, 2},
		"non-minimal TopNC":         {0x16, 2, 1, 5, 1, 0x82, 0x00, 2},
		"non-minimal MinNC":         {0x16, 2, 1, 5, 1, 2, 0x82, 0x00},
		"hostile NC count":          hostile,
	} {
		if _, err := DecodeEnvelope(frame); err != ErrMalformed {
			t.Errorf("%s (% x): %v, want ErrMalformed", name, frame, err)
		}
	}
}

func FuzzUvarintRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(300))
	f.Add(uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, v uint64) {
		r := NewReader(AppendUvarint(nil, v))
		if got := r.Uvarint(); got != v || r.Finish() != nil {
			t.Fatalf("%d -> %d (%v)", v, got, r.Err())
		}
	})
}

func FuzzFloat64RoundTrip(f *testing.F) {
	f.Add(25.0)
	f.Add(math.Inf(-1))
	f.Add(math.NaN())
	f.Fuzz(func(t *testing.T, v float64) {
		r := NewReader(AppendFloat64(nil, v))
		got := r.Float64()
		if r.Finish() != nil || math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%x -> %x (%v)", math.Float64bits(v), math.Float64bits(got), r.Err())
		}
	})
}

func FuzzDecodeEnvelope(f *testing.F) {
	f.Add(AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 4, Contrib: 5, Payload: []byte{1}}))
	f.Add(AppendEnvelope(nil, &Envelope{Kind: KindSynopsis, From: 4,
		ContribSketch: []byte{1, 2}, NCValid: true, TopNC: []int{4, 2}, MinNC: 2, Payload: []byte{1}}))
	f.Add(AppendEnvelope(nil, &Envelope{Kind: KindSynopsis, From: 600, ContribSketch: []byte{0}}))
	f.Add([]byte{0x11, 0x82, 0x00, 6}) // non-minimal From
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnvelope(data) // must never panic or over-allocate
		if err != nil {
			return
		}
		// The decoder is canonical: whatever it accepts re-encodes to itself.
		if got := AppendEnvelope(nil, &e); !bytes.Equal(got, data) {
			t.Fatalf("accepted % x re-encodes to % x", data, got)
		}
	})
}
