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

func TestBytesAndBool(t *testing.T) {
	buf := AppendBool(nil, true)
	buf = AppendBool(buf, false)
	buf = AppendBytes(buf, []byte("hello"))
	buf = AppendBytes(buf, nil)
	r := NewReader(buf)
	if !r.Bool() || r.Bool() {
		t.Fatal("bools")
	}
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
	if r.Byte() != 0 || r.Float64() != 0 || r.Bool() || r.Take(1) != nil {
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
	// Bad bool.
	r = NewReader([]byte{7})
	r.Bool()
	if r.Err() != ErrMalformed {
		t.Fatalf("bool 7: %v", r.Err())
	}
	// Hostile count: claims 1<<40 elements in 2 bytes.
	r = NewReader(append(AppendUvarint(nil, 1<<40), 0, 0))
	r.Count(1)
	if r.Err() != ErrMalformed {
		t.Fatalf("hostile count: %v", r.Err())
	}
}

func TestAppendReusesCapacity(t *testing.T) {
	buf := make([]byte, 0, 64)
	out := AppendUvarint(buf, 300)
	out = AppendFloat64(out, 25)
	out = AppendBool(out, true)
	if &buf[:1][0] != &out[:1][0] {
		t.Fatal("append-style encoders must reuse the caller's buffer")
	}
}

func TestEnvelopeTreeRoundTrip(t *testing.T) {
	e := &Envelope{Kind: KindTree, Epoch: 42, From: 17, Contrib: 123, Payload: []byte{9, 8, 7}}
	buf := AppendEnvelope(nil, e)
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindTree || got.Epoch != 42 || got.From != 17 || got.Contrib != 123 ||
		!bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestEnvelopeSynopsisRoundTrip(t *testing.T) {
	e := &Envelope{
		Kind: KindSynopsis, Epoch: 7, From: 3,
		ContribSketch: []byte{1, 2, 3, 4},
		TopNC:         []int{9, 4, 0},
		MinNC:         -1,
		NCValid:       true,
		Payload:       []byte{0xAA},
	}
	buf := AppendEnvelope(nil, e)
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.NCValid || got.MinNC != -1 || len(got.TopNC) != 3 || got.TopNC[0] != 9 ||
		!bytes.Equal(got.ContribSketch, e.ContribSketch) || !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
	// Without NC stats the frame is shorter.
	e2 := &Envelope{Kind: KindSynopsis, Epoch: 7, From: 3, ContribSketch: []byte{1}, Payload: []byte{2}}
	if len(AppendEnvelope(nil, e2)) >= len(buf) {
		t.Fatal("NCValid=false must not pay for NC fields")
	}
}

func TestEnvelopeRejectsBadFrames(t *testing.T) {
	good := AppendEnvelope(nil, &Envelope{Kind: KindTree, Epoch: 1, From: 2, Contrib: 3})
	// Truncations at every length must error, not panic.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeEnvelope(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Trailing garbage.
	if _, err := DecodeEnvelope(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Wrong version.
	bad := append([]byte{}, good...)
	bad[0] = 99
	if _, err := DecodeEnvelope(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// Unknown kind.
	bad = append([]byte{}, good...)
	bad[1] = 9
	if _, err := DecodeEnvelope(bad); err == nil {
		t.Fatal("bad kind accepted")
	}
	// Epoch/From beyond uint32 must be rejected, not silently truncated.
	over := []byte{Version, byte(KindTree)}
	over = AppendUvarint(over, 1<<32) // epoch out of range
	over = AppendUvarint(over, 2)
	over = AppendVarint(over, 3)
	over = AppendBytes(over, nil)
	if _, err := DecodeEnvelope(over); err != ErrMalformed {
		t.Fatalf("oversized epoch: %v", err)
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
	f.Add(AppendEnvelope(nil, &Envelope{Kind: KindTree, Epoch: 3, From: 4, Contrib: 5, Payload: []byte{1}}))
	f.Add(AppendEnvelope(nil, &Envelope{Kind: KindSynopsis, Epoch: 3, From: 4,
		ContribSketch: []byte{1, 2}, NCValid: true, TopNC: []int{4, 2}, MinNC: 2, Payload: []byte{1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnvelope(data) // must never panic or over-allocate
		if err != nil {
			return
		}
		// Valid frames must re-encode to the identical bytes (canonical form).
		if !bytes.Equal(AppendEnvelope(nil, &e), data) {
			t.Skip("non-canonical varint forms are accepted but not re-emitted")
		}
	})
}
