package wire

import (
	"bytes"
	"testing"
)

// synFrame builds a synopsis frame with NC statistics — the envelope shape
// that makes DecodeEnvelope allocate (TopNC) and that Decoder must not.
func synFrame(from uint32, topNC []int) []byte {
	return AppendEnvelope(nil, &Envelope{
		Kind: KindSynopsis, From: from,
		ContribSketch: []byte{1, 2, 3, 4},
		NCValid:       true, TopNC: topNC, MinNC: -2,
		Payload: []byte{0xAB, 0xCD},
	})
}

func TestDecoderMatchesDecodeEnvelope(t *testing.T) {
	frames := [][]byte{
		AppendEnvelope(nil, &Envelope{Kind: KindTree, From: 2, Contrib: 77, Payload: []byte{5}}),
		synFrame(3, []int{9, 4, 1}),
		synFrame(4, nil),
	}
	var d Decoder
	for _, f := range frames {
		want, err1 := DecodeEnvelope(f)
		got, err2 := d.Decode(f)
		if err1 != nil || err2 != nil {
			t.Fatalf("decode errors: %v / %v", err1, err2)
		}
		if got.Kind != want.Kind || got.From != want.From || got.Contrib != want.Contrib ||
			got.MinNC != want.MinNC || got.NCValid != want.NCValid ||
			len(got.TopNC) != len(want.TopNC) ||
			!bytes.Equal(got.Payload, want.Payload) ||
			!bytes.Equal(got.ContribSketch, want.ContribSketch) {
			t.Fatalf("Decoder: %+v, DecodeEnvelope: %+v", got, want)
		}
		for i := range want.TopNC {
			if got.TopNC[i] != want.TopNC[i] {
				t.Fatalf("TopNC[%d] = %d, want %d", i, got.TopNC[i], want.TopNC[i])
			}
		}
	}
}

func TestDecoderEnvelopesStayValidUntilReset(t *testing.T) {
	// Decode enough NC-bearing frames to force the arena to grow several
	// times; every earlier envelope's TopNC must keep its values.
	var d Decoder
	var envs []Envelope
	var want [][]int
	for i := 0; i < 64; i++ {
		top := []int{i * 3, i * 2, i}
		e, err := d.Decode(synFrame(uint32(i), top))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, e)
		want = append(want, top)
	}
	for i, e := range envs {
		for j := range want[i] {
			if e.TopNC[j] != want[i][j] {
				t.Fatalf("envelope %d TopNC[%d] = %d, want %d (arena growth corrupted an earlier view)",
					i, j, e.TopNC[j], want[i][j])
			}
		}
	}
	d.Reset()
	e, err := d.Decode(synFrame(0, []int{42}))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.TopNC) != 1 || e.TopNC[0] != 42 {
		t.Fatalf("post-Reset decode: %v", e.TopNC)
	}
}

func TestDecoderSteadyStateZeroAlloc(t *testing.T) {
	var d Decoder
	frame := synFrame(7, []int{8, 6, 4, 2})
	// Warm the arena to steady-state capacity.
	for i := 0; i < 8; i++ {
		d.Reset()
		if _, err := d.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		d.Reset()
		for i := 0; i < 4; i++ {
			if _, err := d.Decode(frame); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("steady-state Decode allocates %v per run, want 0", n)
	}
}

// TestDecoderRejectsBadFrames cuts an NC-bearing synopsis frame everywhere
// before its two payload bytes; a cut inside the payload is the payload
// codec's to reject (see TestEnvelopeRejectsBadFrames).
func TestDecoderRejectsBadFrames(t *testing.T) {
	var d Decoder
	good := synFrame(1, []int{3, 2, 1})
	for i := 0; i < len(good)-2; i++ {
		if _, err := d.Decode(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}
