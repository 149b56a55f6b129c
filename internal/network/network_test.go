package network

import (
	"math"
	"testing"
	"testing/quick"

	"tributarydelta/internal/topo"
)

func TestGlobalModel(t *testing.T) {
	m := Global{P: 0.3}
	if m.LossRate(0, 1, 2) != 0.3 || m.LossRate(99, 5, 6) != 0.3 {
		t.Fatal("Global model must be constant")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	for _, c := range []struct {
		p    topo.Point
		want bool
	}{
		{topo.Point{X: 5, Y: 5}, true},
		{topo.Point{X: 0, Y: 0}, true},
		{topo.Point{X: 10, Y: 10}, true},
		{topo.Point{X: 10.01, Y: 5}, false},
		{topo.Point{X: -0.01, Y: 5}, false},
	} {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRegionalModel(t *testing.T) {
	pos := []topo.Point{{X: 5, Y: 5}, {X: 15, Y: 15}}
	m := Regional{Region: Rect{0, 0, 10, 10}, P1: 0.8, P2: 0.05, Pos: pos}
	if m.LossRate(0, 0, 1) != 0.8 {
		t.Fatal("sender inside region should lose at P1")
	}
	if m.LossRate(0, 1, 0) != 0.05 {
		t.Fatal("sender outside region should lose at P2")
	}
}

func TestDistanceModel(t *testing.T) {
	pos := []topo.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 8, Y: 0}}
	m := DistanceModel{Pos: pos, Range: 8, Base: 0.1, Scale: 0.4, Gamma: 2, Max: 0.45}
	near := m.LossRate(0, 0, 1)
	far := m.LossRate(0, 0, 2)
	if near >= far {
		t.Fatalf("loss should grow with distance: near=%v far=%v", near, far)
	}
	if math.Abs(near-(0.1+0.4*0.25)) > 1e-12 {
		t.Fatalf("near loss %v, want 0.2", near)
	}
	if far != 0.45 {
		t.Fatalf("far loss %v should be capped at Max", far)
	}
}

func TestTimelineModel(t *testing.T) {
	m := Timeline{Phases: []Phase{
		{Until: 100, Model: Global{P: 0}},
		{Until: 200, Model: Global{P: 0.3}},
	}}
	if m.LossRate(50, 0, 1) != 0 {
		t.Fatal("phase 1 wrong")
	}
	if m.LossRate(150, 0, 1) != 0.3 {
		t.Fatal("phase 2 wrong")
	}
	if m.LossRate(500, 0, 1) != 0.3 {
		t.Fatal("epochs past the last phase reuse the final model")
	}
	empty := Timeline{}
	if empty.LossRate(5, 0, 1) != 0 {
		t.Fatal("empty timeline should be lossless")
	}
}

func lineGraph(n int) *topo.Graph {
	pos := make([]topo.Point, n)
	for i := range pos {
		pos[i] = topo.Point{X: float64(i), Y: 0}
	}
	return topo.NewField(pos, 1.5)
}

func TestDeliveredDeterministic(t *testing.T) {
	n := New(lineGraph(5), Global{P: 0.5}, 42)
	for epoch := 0; epoch < 10; epoch++ {
		a := n.Delivered(epoch, 0, 1, 2)
		b := n.Delivered(epoch, 0, 1, 2)
		if a != b {
			t.Fatal("delivery decision must be deterministic")
		}
	}
}

func TestDeliveredIndependence(t *testing.T) {
	// Different receivers of the same broadcast must see independent losses,
	// and different attempts must redraw.
	n := New(lineGraph(3), Global{P: 0.5}, 7)
	var d12, d10, attempts int
	const trials = 20000
	for e := 0; e < trials; e++ {
		if n.Delivered(e, 0, 1, 2) {
			d12++
		}
		if n.Delivered(e, 0, 1, 0) {
			d10++
		}
		if n.Delivered(e, 1, 1, 2) != n.Delivered(e, 0, 1, 2) {
			attempts++
		}
	}
	for _, c := range []int{d12, d10} {
		if f := float64(c) / trials; math.Abs(f-0.5) > 0.02 {
			t.Fatalf("delivery frequency %v, want ~0.5", f)
		}
	}
	if attempts == 0 {
		t.Fatal("retransmission attempts never differed from first attempt")
	}
}

func TestDeliveredRates(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.3, 1} {
		n := New(lineGraph(3), Global{P: p}, 11)
		lost := 0
		const trials = 20000
		for e := 0; e < trials; e++ {
			if !n.Delivered(e, 0, 0, 1) {
				lost++
			}
		}
		got := float64(lost) / trials
		if math.Abs(got-p) > 0.02 {
			t.Errorf("loss rate %v measured %v", p, got)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s := NewStats(4)
	s.AddTxBytes(1, 1, 20) // 5 words
	s.AddTxBytes(1, 1, 52) // 13 words
	s.AddTxBytes(2, 1, 0)  // empty frame: a transmission, no words
	if s.Transmissions[1] != 2 || s.Transmissions[2] != 1 {
		t.Fatal("transmission counts wrong")
	}
	if s.Words[1] != 18 {
		t.Fatalf("words[1] = %d, want 18", s.Words[1])
	}
	if s.TotalWords() != 18 {
		t.Fatal("total words wrong")
	}
	if s.MaxWords() != 18 {
		t.Fatal("max words wrong")
	}
	if got := s.AvgWords(); math.Abs(got-6) > 1e-12 { // 18/3 sensors
		t.Fatalf("avg words %v, want 6", got)
	}
}

func TestStatsByteAccounting(t *testing.T) {
	s := NewStats(4)
	s.AddTxBytes(1, 2, 9)  // 9 bytes = 3 words
	s.AddTxBytes(1, 3, 49) // 49 bytes = 13 words
	s.AddTxBytes(2, 2, 0)  // empty frame
	if s.Bytes[1] != 58 || s.Bytes[2] != 0 {
		t.Fatalf("bytes = %v", s.Bytes)
	}
	if s.Words[1] != 16 {
		t.Fatalf("words[1] = %d, want 16 (derived from bytes)", s.Words[1])
	}
	if s.TotalBytes() != 58 || s.MaxBytes() != 58 {
		t.Fatalf("total/max bytes = %d/%d, want 58/58", s.TotalBytes(), s.MaxBytes())
	}
	// The level slices are preallocated to one slot per node (the deepest
	// possible schedule level is n−1), never grown by recording.
	if len(s.LevelBytes) != 4 || s.LevelBytes[2] != 9 || s.LevelBytes[3] != 49 {
		t.Fatalf("level bytes = %v", s.LevelBytes)
	}
	// A level at or beyond the slot count is a caller bug and must be loud,
	// not silently unaccounted.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range level did not panic")
			}
		}()
		s.AddTxBytes(1, 4, 9)
	}()
}

func TestStatsEmpty(t *testing.T) {
	s := NewStats(1)
	if s.AvgWords() != 0 || s.MaxWords() != 0 || s.TotalWords() != 0 {
		t.Fatal("empty stats should be all zero")
	}
}

func TestDeliveredSeedSensitivity(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		a := New(lineGraph(3), Global{P: 0.5}, seed)
		b := New(lineGraph(3), Global{P: 0.5}, seed+1)
		// With 64 epochs the two seeds should disagree somewhere.
		for e := 0; e < 64; e++ {
			if a.Delivered(e, 0, 0, 1) != b.Delivered(e, 0, 0, 1) {
				return true
			}
		}
		return false
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}
