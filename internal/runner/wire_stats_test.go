package runner

import (
	"testing"

	"tributarydelta/internal/network"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/wire"
)

// TestByteAccountingTree pins the byte-level energy accounting of the
// tributary fast path: a Count tree frame is the paper's two payload words
// (one-word partial + one-word contributing count) plus at most one word of
// framing (header byte, sender).
func TestByteAccountingTree(t *testing.T) {
	f := newFixture(31, 300)
	r := countRunner(t, f, ModeTree, network.Global{P: 0}, 31)
	r.RunEpoch(0)
	if r.Stats.TotalBytes() <= 0 {
		t.Fatal("no bytes accounted")
	}
	// Bytes and Words must describe the same transmissions: each frame's
	// words is ceil(bytes/4).
	if r.Stats.TotalBytes() > 4*r.Stats.TotalWords() {
		t.Fatalf("bytes %d exceed 4×words %d", r.Stats.TotalBytes(), 4*r.Stats.TotalWords())
	}
	for v := 1; v < f.g.N(); v++ {
		tx := r.Stats.Transmissions[v]
		if tx == 0 {
			continue
		}
		perTxWords := float64(r.Stats.Words[v]) / float64(tx)
		if perTxWords > 3 {
			t.Fatalf("node %d: %v words per tree Count frame, want <= 3 (2 payload + framing)", v, perTxWords)
		}
	}
}

// TestByteAccountingMultipath pins the delta side: a broadcast frame
// carries the synopsis sketch and the contributing-Count sketch, plus 3 or 4
// bytes of framing: the header byte, a sender id below 2^14 and the
// contributing sketch's length byte (SD frames carry no §4.2 statistics). A
// sketch is at most its dense form, a width header plus ⌈K·b/8⌉ bytes, where
// a 300-node field needs up to 10 bits per bitmap (a bit at position 10
// takes a count near 2^10·K); a nearly empty one is gap-coded instead, and
// one set bit takes 3 bytes: header, count, offset. A leaf's frame — one
// reading in each sketch, a one-byte sender id — is the small end at 9
// bytes, the base station's neighbours' the large one; the raw encoding's
// 8K bytes is never approached.
func TestByteAccountingMultipath(t *testing.T) {
	f := newFixture(32, 300)
	r := countRunner(t, f, ModeMultipath, network.Global{P: 0}, 32)
	r.RunEpoch(0)
	const k = 40 // aggregate.DefaultSketchK and the default ContribK
	const framing = 4
	sketchBytes := func(b int) int64 { return int64(1 + (k*b+7)/8) }
	const minBytes = 3 + 2*3 // header, sender, length byte; two one-bit sketches
	maxBytes := 2*sketchBytes(10) + framing
	var lo, hi int64 = 1 << 62, 0
	for v := 1; v < f.g.N(); v++ {
		tx := r.Stats.Transmissions[v]
		if tx == 0 {
			continue
		}
		b := r.Stats.Bytes[v] / tx
		if b < minBytes || b > maxBytes {
			t.Fatalf("node %d: %d bytes per synopsis frame, want %d..%d", v, b, minBytes, maxBytes)
		}
		lo, hi = min(lo, b), max(hi, b)
	}
	// Both ends occur: single set bits at the leaves, sketches grown to 8 or
	// more bits per bitmap where hundreds of readings have been fused.
	if lo != minBytes || hi < 2*sketchBytes(8) {
		t.Fatalf("synopsis frames span %d..%d bytes, want both ends (%d and >= %d)",
			lo, hi, minBytes, 2*sketchBytes(8))
	}
}

// TestTotalBytesSimVsUDP holds the transports to one size accounting: 50 TD
// epochs over the simulator and over the deterministic UDP fleet must charge
// the same bytes and words to the last unit, so a codec change can never
// move one backend's cost axis without the other's.
func TestTotalBytesSimVsUDP(t *testing.T) {
	f := newFixture(36, 300)
	sim := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 36)
	udp := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 36,
		func(c *Config[struct{}, int64, *sketch.Sketch, float64]) {
			c.Transport = newDetUDP(t, c.Net, false)
		})
	rs, ru := sim.Run(50), udp.Run(50)
	for i := range rs {
		if rs[i].Answer != ru[i].Answer {
			t.Fatalf("epoch %d: answers diverge (%v vs %v)", i, rs[i].Answer, ru[i].Answer)
		}
	}
	if sim.Stats.TotalBytes() != udp.Stats.TotalBytes() || sim.Stats.TotalWords() != udp.Stats.TotalWords() {
		t.Fatalf("sim charged %d bytes / %d words, udp %d / %d",
			sim.Stats.TotalBytes(), sim.Stats.TotalWords(), udp.Stats.TotalBytes(), udp.Stats.TotalWords())
	}
	if sim.Stats.TotalBytes() == 0 {
		t.Fatal("no bytes accounted")
	}
}

// TestPerLevelByteAccounting verifies the per-level load breakdown: every
// populated schedule level reports bytes and the levels sum to the total.
func TestPerLevelByteAccounting(t *testing.T) {
	f := newFixture(33, 300)
	r := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 33)
	r.Run(5)
	if len(r.Stats.LevelBytes) == 0 {
		t.Fatal("no per-level accounting")
	}
	var sum int64
	for l, b := range r.Stats.LevelBytes {
		sum += b
		// Per frame, words = ceil(bytes/4), so 4·words always covers bytes.
		if 4*r.Stats.LevelWords[l] < b {
			t.Fatalf("level %d: words %d inconsistent with bytes %d", l, r.Stats.LevelWords[l], b)
		}
	}
	if sum != r.Stats.TotalBytes() {
		t.Fatalf("level bytes sum %d != total %d", sum, r.Stats.TotalBytes())
	}
}

// TestLossDropsWholeFrames: at 100% loss nothing is delivered and the base
// station answers from its own perspective alone, yet every transmission is
// still charged.
func TestLossDropsWholeFrames(t *testing.T) {
	f := newFixture(34, 200)
	r := countRunner(t, f, ModeTree, network.Global{P: 1}, 34)
	res := r.RunEpoch(0)
	if res.Answer != 0 {
		t.Fatalf("total loss delivered an answer: %v", res.Answer)
	}
	if r.Stats.TotalBytes() <= 0 {
		t.Fatal("lost frames must still cost transmit energy")
	}
}

// recordingTransport wraps the simulator transport and checks that every
// frame on the seam is a decodable envelope.
type recordingTransport struct {
	net    *network.Net
	frames int
	bad    int
}

func (t *recordingTransport) Deliver(epoch, attempt, from, to int, frame []byte) bool {
	t.frames++
	if _, err := wire.DecodeEnvelope(frame); err != nil {
		t.bad++
	}
	return t.net.Delivered(epoch, attempt, from, to)
}

// TestTransportSeamSeesRealFrames verifies the Transport seam: a custom
// backend receives the actual encoded envelopes and can decode every one,
// and plugging it in does not change results.
func TestTransportSeamSeesRealFrames(t *testing.T) {
	f := newFixture(35, 200)
	net := network.New(f.g, network.Global{P: 0.2}, 35)
	rec := &recordingTransport{net: net}
	a := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 35)
	b := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 35,
		func(c *Config[struct{}, int64, *sketch.Sketch, float64]) { c.Transport = rec })
	ra := a.Run(10)
	rb := b.Run(10)
	for i := range ra {
		if ra[i].Answer != rb[i].Answer || ra[i].TrueContrib != rb[i].TrueContrib {
			t.Fatalf("epoch %d: custom transport changed results", i)
		}
	}
	if rec.frames == 0 {
		t.Fatal("transport saw no frames")
	}
	if rec.bad != 0 {
		t.Fatalf("%d of %d frames failed to decode on the seam", rec.bad, rec.frames)
	}
}
