package aggregate

import (
	"math"
	"testing"

	"tributarydelta/internal/sample"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/wire"
)

// roundTrip encodes a partial and a synopsis through an aggregate's codecs
// and fails on any decode error. The comparison closures let each aggregate
// define value equality.
func roundTrip[V, P, S, R any](t *testing.T, a Aggregate[V, P, S, R], p P, s S,
	eqP func(a, b P) bool, eqS func(a, b S) bool) {
	t.Helper()
	gotP, err := a.DecodePartial(a.AppendPartial(nil, p))
	if err != nil {
		t.Fatalf("%s: DecodePartial: %v", a.Name(), err)
	}
	if !eqP(p, gotP) {
		t.Fatalf("%s: partial changed across the wire: %v != %v", a.Name(), gotP, p)
	}
	gotS, err := a.DecodeSynopsis(a.AppendSynopsis(nil, s))
	if err != nil {
		t.Fatalf("%s: DecodeSynopsis: %v", a.Name(), err)
	}
	if !eqS(s, gotS) {
		t.Fatalf("%s: synopsis changed across the wire", a.Name())
	}
}

func sketchEq(a, b *sketch.Sketch) bool {
	return string(a.AppendWire(nil)) == string(b.AppendWire(nil))
}

func TestCodecRoundTrips(t *testing.T) {
	count := NewCount(1)
	for _, c := range []int64{0, 1, 57, 599, 1 << 40, -3} {
		roundTrip(t, count, c, count.Convert(0, 9, 600),
			func(a, b int64) bool { return a == b }, sketchEq)
	}

	sum := NewSum(2)
	for _, v := range []float64{0, 1, 25.5, 1234, 1e-9, -7.25, math.Inf(1)} {
		roundTrip(t, sum, v, sum.Convert(0, 3, 1000),
			func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) },
			sketchEq)
	}

	feq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	roundTrip(t, Min{}, 3.25, -17.5, feq, feq)
	roundTrip(t, Max{}, -3.25, 17.5, feq, feq)

	avg := NewAverage(3)
	roundTrip(t, avg, AvgPartial{Sum: 123.456, Count: 78}, avg.Convert(1, 2, AvgPartial{Sum: 900, Count: 30}),
		func(a, b AvgPartial) bool { return a == b },
		func(a, b AvgSynopsis) bool { return sketchEq(a.Sum, b.Sum) && sketchEq(a.Count, b.Count) })

	mom := NewMoments(4)
	roundTrip(t, mom, MomentsPartial{N: 9, S1: 90.5, S2: 1000.25, S3: 12000},
		mom.Convert(0, 5, MomentsPartial{N: 3, S1: 30, S2: 300, S3: 3000}),
		func(a, b MomentsPartial) bool { return a == b },
		func(a, b MomentsSynopsis) bool {
			return sketchEq(a.N, b.N) && sketchEq(a.S1, b.S1) &&
				sketchEq(a.S2, b.S2) && sketchEq(a.S3, b.S3)
		})

	us := NewUniformSample(5, 8)
	p := us.Local(0, 1, 10)
	for node := 2; node <= 40; node++ {
		p = us.MergeTree(p, us.Local(0, node, float64(node)))
	}
	seq := func(a, b *sample.Sample) bool {
		return string(a.AppendWire(nil)) == string(b.AppendWire(nil))
	}
	roundTrip(t, us, p, us.Convert(0, 1, p), seq, seq)
}

func TestCodecsRejectGarbage(t *testing.T) {
	count := NewCount(6)
	if _, err := count.DecodeSynopsis([]byte{1, 2, 3}); err == nil {
		t.Fatal("short sketch accepted")
	}
	if _, err := count.DecodePartial(nil); err == nil {
		t.Fatal("empty partial accepted")
	}
	avg := NewAverage(7)
	if _, err := avg.DecodeSynopsis(make([]byte, 7)); err == nil {
		t.Fatal("truncated average synopsis accepted")
	}
	us := NewUniformSample(8, 4)
	big := NewUniformSample(8, 64)
	over := big.Local(0, 1, 1)
	for n := 2; n <= 20; n++ {
		over = big.MergeTree(over, big.Local(0, n, float64(n)))
	}
	if _, err := us.DecodePartial(big.AppendPartial(nil, over)); err == nil {
		t.Fatal("over-capacity sample accepted")
	}
}

// TestPaperMessageCosts pins the encoded-length-derived word counts to the
// paper's §5/§7.1 message costs for the running-example aggregates: a
// Count/Sum tree partial is one 32-bit word (plus the one-word contributing
// count the envelope carries), and the multi-path synopsis is the K-bitmap
// FM sketch bit-packed to the width its widest bitmap needs — for the
// paper's 600-sensor field nine bits per bitmap plus the width header, 46
// bytes, under §7.1's lossy 48-byte packing and a quarter of the raw
// one-word-per-bitmap vector — or, when that is shorter, its set bits
// gap-coded, and never more than the 1+4K-byte ceiling.
func TestPaperMessageCosts(t *testing.T) {
	count := NewCount(9)
	for _, c := range []int64{1, 57, 600, 100_000} {
		if w := PartialWords[struct{}, int64, *sketch.Sketch, float64](count, c); w != 1 {
			t.Fatalf("Count partial %d costs %d words, want 1", c, w)
		}
		// The piggybacked contributing count (the envelope's Contrib field)
		// costs at most one more word.
		if n := len(wire.AppendVarint(nil, c)); wire.Words(n) != 1 {
			t.Fatalf("contributing count %d costs %d bytes, want <= 1 word", c, n)
		}
	}
	syn := count.Convert(0, 1, 600)
	enc := count.AppendSynopsis(nil, syn)
	if want := 1 + (count.K*9+7)/8; len(enc) != want || enc[0] != 9 {
		t.Fatalf("Count synopsis of 600 costs %d bytes at width %d, want 1+⌈9k/8⌉=%d at width 9", len(enc), enc[0], want)
	}
	if w := SynopsisWords[struct{}, int64, *sketch.Sketch, float64](count, syn); w != 12 {
		t.Fatalf("Count synopsis costs %d words, want 12", w)
	}
	// One reading sets one bit at level 0 of one bitmap. Dense, that is one
	// bit per bitmap (1+k/8 = 6 bytes); the sparse form sends the header
	// 0x40|1, the set-bit count 1 and the bit's one-byte offset.
	if one := count.AppendSynopsis(nil, count.Convert(0, 1, 1)); len(one) != 3 || one[0] != 0x41 || one[1] != 1 {
		t.Fatalf("single-reading Count synopsis is %x, want 3 bytes: header 0x41, one set bit", one)
	}

	sum := NewSum(10)
	// Sensor-style readings keep the exact float sum in one word; wide
	// mantissas (large odd sums) degrade gracefully, never past 3 words.
	for _, v := range []float64{1, 42, 512, 4096} {
		if w := PartialWords[float64, float64, *sketch.Sketch, float64](sum, v); w != 1 {
			t.Fatalf("Sum partial %v costs %d words, want 1", v, w)
		}
	}
	if w := PartialWords[float64, float64, *sketch.Sketch, float64](sum, 87_123.625); w > 3 {
		t.Fatalf("worst-case Sum partial costs %d words, want <= 3", w)
	}
	ssyn := sum.Convert(0, 1, 1234)
	senc := sum.AppendSynopsis(nil, ssyn)
	if want := 1 + (sum.K*11+7)/8; len(senc) != want || senc[0] != 11 || len(senc) > sum.MaxSynopsisBytes() {
		t.Fatalf("Sum synopsis of 1234 costs %d bytes at width %d, want 1+⌈11k/8⌉=%d at width 11 (ceiling %d)",
			len(senc), senc[0], want, sum.MaxSynopsisBytes())
	}
	// The ceiling is reached only by a sum that sets bit 31 of a bitmap.
	huge := sum.Convert(0, 1, 1e12)
	if n := len(sum.AppendSynopsis(nil, huge)); n != sum.MaxSynopsisBytes() || n != 1+4*sum.K {
		t.Fatalf("huge Sum synopsis costs %d bytes, want the 1+4k=%d ceiling", n, 1+4*sum.K)
	}
	avg := NewAverage(11)
	asyn := avg.Convert(0, 1, AvgPartial{Sum: 1e12, Count: 1 << 40})
	if n := len(avg.AppendSynopsis(nil, asyn)); n != avg.MaxSynopsisBytes() {
		t.Fatalf("huge Average synopsis costs %d bytes, want the ceiling %d", n, avg.MaxSynopsisBytes())
	}
}

// TestSketchSynopsisRejectsNonCanonical drives every malformed shape of an
// embedded sketch through the multi-sketch synopsis decoders: the sketches
// delimit themselves, so a bad width header in the first must not let the
// decoder resynchronize on the second.
func TestSketchSynopsisRejectsNonCanonical(t *testing.T) {
	avg := NewAverage(21)
	mom := NewMoments(22)
	avgDec := func(data []byte) error {
		_, err := avg.DecodeSynopsis(data)
		if _, errInto := avg.DecodeSynopsisInto(data, avg.NewSynopsis()); (err == nil) != (errInto == nil) {
			t.Errorf("Average: DecodeSynopsis says %v, DecodeSynopsisInto says %v", err, errInto)
		}
		return err
	}
	momDec := func(data []byte) error { _, err := mom.DecodeSynopsis(data); return err }
	for _, tc := range []struct {
		name   string
		k      int
		valid  []byte
		decode func([]byte) error
	}{
		{"Average", avg.K, avg.AppendSynopsis(nil, avg.Convert(0, 1, AvgPartial{Sum: 900, Count: 30})), avgDec},
		{"Moments", mom.K, mom.AppendSynopsis(nil, mom.Convert(0, 1, MomentsPartial{N: 30, S1: 90, S2: 300, S3: 1000})), momDec},
	} {
		if err := tc.decode(tc.valid); err != nil {
			t.Fatalf("%s: valid synopsis rejected: %v", tc.name, err)
		}
		for i := 0; i < len(tc.valid); i++ {
			if tc.decode(tc.valid[:i]) == nil {
				t.Errorf("%s: truncation at %d accepted", tc.name, i)
			}
		}
		if tc.decode(append(append([]byte(nil), tc.valid...), 0)) == nil {
			t.Errorf("%s: trailing byte accepted", tc.name)
		}
		// An empty sketch is the one byte 0. Spelled as k explicit 1-bit
		// zero fields, under a width header above 32 with the bytes to back
		// it, with a nonzero padding bit, as a sparse form with no set bits
		// or under the first header past the sparse ones, the first sketch
		// must fail the message even though what follows it is intact.
		first := tc.valid[:1+(tc.k*int(tc.valid[0])+7)/8]
		rest := tc.valid[len(first):]
		if err := tc.decode(append([]byte{0}, rest...)); err != nil {
			t.Fatalf("%s: empty first sketch rejected: %v", tc.name, err)
		}
		if tc.k%8 == 0 {
			t.Fatalf("%s: k=%d leaves no padding bits to corrupt at width 1", tc.name, tc.k)
		}
		padded := append([]byte{1}, make([]byte, (tc.k+7)/8)...)
		padded[1] |= 1                // bitmap 0 = 1: width 1 is minimal
		padded[len(padded)-1] |= 0x80 // the last padding bit
		for name, first := range map[string][]byte{
			"non-minimal width": append([]byte{1}, make([]byte, (tc.k+7)/8)...),
			"width header 33":   append([]byte{33}, make([]byte, (33*tc.k+7)/8)...),
			"nonzero padding":   padded,
			"no set bits":       {0x41, 0},
			"header 0x61":       {0x61, 1, 0},
		} {
			if tc.decode(append(first, rest...)) == nil {
				t.Errorf("%s: first sketch with %s accepted", tc.name, name)
			}
		}
	}
}

func FuzzCountPartialCodec(f *testing.F) {
	f.Add(int64(57))
	f.Add(int64(-1))
	count := NewCount(11)
	f.Fuzz(func(t *testing.T, p int64) {
		got, err := count.DecodePartial(count.AppendPartial(nil, p))
		if err != nil || got != p {
			t.Fatalf("%d -> %d (%v)", p, got, err)
		}
	})
}

func FuzzSumPartialCodec(f *testing.F) {
	f.Add(25.0)
	f.Add(math.NaN())
	sum := NewSum(12)
	f.Fuzz(func(t *testing.T, p float64) {
		got, err := sum.DecodePartial(sum.AppendPartial(nil, p))
		if err != nil || math.Float64bits(got) != math.Float64bits(p) {
			t.Fatalf("%x -> %x (%v)", math.Float64bits(p), math.Float64bits(got), err)
		}
	})
}

func FuzzAveragePartialCodec(f *testing.F) {
	f.Add(10.5, int64(3))
	avg := NewAverage(13)
	f.Fuzz(func(t *testing.T, s float64, c int64) {
		p := AvgPartial{Sum: s, Count: c}
		got, err := avg.DecodePartial(avg.AppendPartial(nil, p))
		if err != nil || math.Float64bits(got.Sum) != math.Float64bits(p.Sum) || got.Count != p.Count {
			t.Fatalf("%+v -> %+v (%v)", p, got, err)
		}
	})
}

func FuzzMomentsPartialCodec(f *testing.F) {
	f.Add(int64(3), 30.5, 300.25, 3000.0)
	mom := NewMoments(15)
	f.Fuzz(func(t *testing.T, n int64, s1, s2, s3 float64) {
		p := MomentsPartial{N: n, S1: s1, S2: s2, S3: s3}
		got, err := mom.DecodePartial(mom.AppendPartial(nil, p))
		if err != nil || got.N != p.N ||
			math.Float64bits(got.S1) != math.Float64bits(p.S1) ||
			math.Float64bits(got.S2) != math.Float64bits(p.S2) ||
			math.Float64bits(got.S3) != math.Float64bits(p.S3) {
			t.Fatalf("%+v -> %+v (%v)", p, got, err)
		}
	})
}

func FuzzSamplePartialDecode(f *testing.F) {
	us := NewUniformSample(16, 6)
	p := us.Local(0, 1, 2.5)
	p = us.MergeTree(p, us.Local(0, 2, 7.5))
	f.Add(us.AppendPartial(nil, p))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := us.DecodePartial(data) // must never panic
		if err != nil {
			return
		}
		if s.Len() > 6 {
			t.Fatal("decoded sample exceeds capacity")
		}
	})
}

func FuzzSketchSynopsisDecode(f *testing.F) {
	count := NewCount(14)
	f.Add(count.AppendSynopsis(nil, count.Convert(0, 1, 10)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := count.DecodeSynopsis(data) // must never panic
		if err != nil {
			return
		}
		if string(count.AppendSynopsis(nil, s)) != string(data) {
			t.Fatal("sketch synopsis codec not bijective")
		}
	})
}
