package wire

import (
	"math"
	"testing"
)

// BenchmarkEncodeDecode covers the hot codec paths the runner exercises per
// transmission: varints, floats, and full envelope frames.

func BenchmarkAppendUvarint(b *testing.B) {
	buf := make([]byte, 0, 16)
	for i := 0; i < b.N; i++ {
		buf = AppendUvarint(buf[:0], uint64(i)*2654435761)
	}
}

func BenchmarkAppendFloat64(b *testing.B) {
	buf := make([]byte, 0, 16)
	for i := 0; i < b.N; i++ {
		buf = AppendFloat64(buf[:0], float64(i%1000)+0.5)
	}
}

func BenchmarkDecodeFloat64(b *testing.B) {
	buf := AppendFloat64(nil, 12345.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		if r.Float64(); r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}

func benchEnvelope() *Envelope {
	payload := make([]byte, 160) // a 40-bitmap raw FM sketch
	for i := range payload {
		payload[i] = byte(i)
	}
	return &Envelope{
		Kind:          KindSynopsis,
		From:          321,
		ContribSketch: payload[:160],
		TopNC:         []int{17, 9, 3, 0},
		MinNC:         0,
		NCValid:       true,
		Payload:       payload,
	}
}

func BenchmarkEncodeEnvelope(b *testing.B) {
	e := benchEnvelope()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEnvelope(buf[:0], e)
	}
	if len(buf) == 0 {
		b.Fatal("no bytes")
	}
}

func BenchmarkDecodeEnvelope(b *testing.B) {
	buf := AppendEnvelope(nil, benchEnvelope())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecodeTreeFrame(b *testing.B) {
	// The tributary fast path: a Count partial is a couple of varints.
	payload := AppendVarint(nil, 57)
	e := &Envelope{Kind: KindTree, From: 99, Contrib: 57, Payload: payload}
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEnvelope(buf[:0], e)
		if _, err := DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWords(b *testing.B) {
	s := 0
	for i := 0; i < b.N; i++ {
		s += Words(i & 1023)
	}
	if s < 0 {
		b.Fatal(math.Inf(1))
	}
}
