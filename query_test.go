package tributarydelta_test

import (
	"context"
	"runtime"
	"testing"

	td "tributarydelta"
	"tributarydelta/internal/freq"
)

var paritySchemes = []td.Scheme{td.SchemeTAG, td.SchemeSD, td.SchemeTDCoarse, td.SchemeTD}

const (
	paritySensors = 150
	parityLoss    = 0.25
)

func parityDep(t *testing.T, seed uint64) *td.Deployment {
	t.Helper()
	dep := td.NewSyntheticDeployment(seed, paritySensors)
	dep.SetGlobalLoss(parityLoss)
	return dep
}

// TestQuantilesQuery exercises the new Quantiles facade end to end: under
// every scheme the answers stay within a loose rank tolerance of the truth,
// and the answer summary covers roughly the contributing population.
func TestQuantilesQuery(t *testing.T) {
	value := func(_, node int) float64 { return float64(node % 100) }
	for _, scheme := range paritySchemes {
		dep := parityDep(t, 1)
		s, err := td.Open(dep, td.Quantiles(value),
			td.WithScheme(scheme), td.WithSeed(1), td.WithEpsilon(0.05), td.WithSampleK(80))
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(0, 6)
		last := res[len(res)-1]
		if last.TrueContrib == 0 {
			t.Fatalf("%v: nothing contributed", scheme)
		}
		// The summary's population should be within FM-sketch error of the
		// number of contributing sensors (one reading each).
		n := float64(last.Answer.N)
		contrib := float64(last.TrueContrib)
		if n < 0.5*contrib || n > 1.7*contrib {
			t.Fatalf("%v: summary covers %v readings, %v contributed", scheme, n, contrib)
		}
		// Median of node%100 over ~uniform node ids sits near 50; allow wide
		// slack for sketch scaling under SD.
		if med := last.Answer.Quantile(0.5); med < 20 || med > 80 {
			t.Fatalf("%v: median %v wildly off", scheme, med)
		}
		if s.TotalBytes() <= 0 {
			t.Fatalf("%v: no accounting", scheme)
		}
	}
}

// TestQuantilesTAGExactness pins the lossless pure-tree case: with no loss
// every reading is covered and every quantile is within the eps budget of
// the true rank.
func TestQuantilesTAGExactness(t *testing.T) {
	dep := td.NewSyntheticDeployment(4, 200)
	value := func(_, node int) float64 { return float64(node) }
	const eps = 0.05
	s, err := td.Open(dep, td.Quantiles(value),
		td.WithScheme(td.SchemeTAG), td.WithSeed(4), td.WithEpsilon(eps))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunEpoch(0)
	if int(res.Answer.N) != s.Sensors() {
		t.Fatalf("summary covers %d, want all %d sensors", res.Answer.N, s.Sensors())
	}
	if res.Answer.Eps > eps {
		t.Fatalf("accumulated eps %v exceeds budget %v", res.Answer.Eps, eps)
	}
}

// TestOpenValidation covers the query builder's error paths.
func TestOpenValidation(t *testing.T) {
	dep := parityDep(t, 1)
	if _, err := td.Open(dep, td.Query[float64]{}); err == nil {
		t.Fatal("zero query must be rejected")
	}
	if _, err := td.Open(dep, td.Sample(0, nil)); err == nil {
		t.Fatal("non-positive sample capacity must be rejected")
	}
	if _, err := td.Open(dep, td.Sum(nil)); err == nil {
		t.Fatal("nil value source must be rejected")
	}
	if _, err := td.Open(dep, td.FrequentItems(func(int, int) []freq.Item { return nil }, 0.01, 100),
		td.WithEpsilon(0.02)); err == nil {
		t.Fatal("epsilon above support must be rejected")
	}
	other := parityDep(t, 2)
	set := other.NewQuerySet(1)
	defer set.Close()
	if _, err := td.Open(dep, td.Count(), td.InSet(set)); err == nil {
		t.Fatal("InSet with a foreign deployment must be rejected")
	}
	own := dep.NewQuerySet(1)
	defer own.Close()
	if _, err := td.Open(dep, td.Count(), td.InSet(own), td.WithUDPTransport(2)); err == nil {
		t.Fatal("WithUDPTransport combined with InSet must be rejected")
	}
}

// TestSessionCloseMidRunConcurrent pins the hard half of the Close
// contract: Close racing a Run on another goroutine must wait out the
// in-flight epoch before releasing the UDP runtime — never an epoch over
// a torn-down shard fleet.
func TestSessionCloseMidRunConcurrent(t *testing.T) {
	for i := 0; i < 5; i++ {
		dep := td.NewSyntheticDeployment(8, 150)
		dep.SetGlobalLoss(0.2)
		dep.UseUDPRuntime(4)
		s, err := td.Open(dep, td.Count(), td.WithSeed(8))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan []td.Result[float64], 1)
		go func() { done <- s.Run(0, 200) }()
		s.Close()
		out := <-done
		if len(out) > 200 {
			t.Fatalf("run returned %d rounds", len(out))
		}
		for e, r := range out {
			if r.Epoch != e || r.TrueContrib == 0 {
				t.Fatalf("round %d corrupted: %+v", e, r)
			}
		}
	}
}

// TestQuerySetCloseMidRunConcurrent is the set-level counterpart: Close
// racing set.Run over the shared transport.
func TestQuerySetCloseMidRunConcurrent(t *testing.T) {
	for i := 0; i < 5; i++ {
		dep := td.NewSyntheticDeployment(9, 150)
		dep.SetGlobalLoss(0.2)
		dep.UseUDPRuntime(4)
		set := dep.NewQuerySet(9)
		if _, err := td.Open(dep, td.Count(), td.InSet(set)); err != nil {
			t.Fatal(err)
		}
		if _, err := td.Open(dep, td.Sum(func(_, node int) float64 { return 1 }), td.InSet(set)); err != nil {
			t.Fatal(err)
		}
		done := make(chan []td.SetRound, 1)
		go func() { done <- set.Run(0, 200) }()
		set.Close()
		out := <-done
		for e, round := range out {
			if round.Epoch != e || len(round.Results) != 2 {
				t.Fatalf("round %d corrupted: %+v", e, round)
			}
		}
	}
}

// TestSessionCloseContract pins the documented Close semantics: a closed
// session stops Run early, returns zero results from RunEpoch, closes
// Stream channels, and Close is idempotent and callable mid-stream.
func TestSessionCloseContract(t *testing.T) {
	dep := parityDep(t, 5)
	s, err := td.Open(dep, td.Count(), td.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}

	// Stream two rounds, then close mid-stream from the consumer side.
	ch := s.Stream(context.Background(), 0, 1000)
	r1, ok1 := <-ch
	r2, ok2 := <-ch
	if !ok1 || !ok2 || r1.Epoch != 0 || r2.Epoch != 1 {
		t.Fatalf("stream rounds: %+v %v, %+v %v", r1, ok1, r2, ok2)
	}
	s.Close()
	if _, ok := <-ch; ok {
		// One round may already be in flight; after it the channel must
		// close.
		if _, ok := <-ch; ok {
			t.Fatal("stream channel still open after Close")
		}
	}

	// Closed-session behaviour.
	if got := s.RunEpoch(42); got != (td.Result[float64]{Epoch: 42}) {
		t.Fatalf("RunEpoch on closed session = %+v", got)
	}
	if got := s.Run(0, 5); len(got) != 0 {
		t.Fatalf("Run on closed session returned %d results", len(got))
	}
	s.Close() // idempotent

	// A fresh stream on a closed session closes immediately.
	if _, ok := <-s.Stream(context.Background(), 0, 3); ok {
		t.Fatal("stream on closed session must be empty")
	}
}

// TestSessionRunInto pins the allocation-free collection loop: with enough
// capacity the backing array is reused across calls.
func TestSessionRunInto(t *testing.T) {
	dep := parityDep(t, 6)
	s, err := td.Open(dep, td.Count(), td.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]td.Result[float64], 0, 8)
	out := s.RunInto(buf, 0, 4)
	if len(out) != 4 || cap(out) != cap(buf) || &out[0] != &buf[:1][0] {
		t.Fatalf("RunInto reallocated: len %d cap %d", len(out), cap(out))
	}
	out2 := s.RunInto(out, 4, 4)
	if len(out2) != 8 || &out2[0] != &out[0] {
		t.Fatal("RunInto second call reallocated")
	}
	for i, r := range out2 {
		if r.Epoch != i {
			t.Fatalf("epoch %d at index %d", r.Epoch, i)
		}
	}
}

// TestStreamContextCancel pins cancellation: the channel closes promptly
// once the context is done and the session stays usable.
func TestStreamContextCancel(t *testing.T) {
	dep := parityDep(t, 7)
	s, err := td.Open(dep, td.Count(), td.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ch := s.Stream(ctx, 0, 1000)
	if _, ok := <-ch; !ok {
		t.Fatal("first stream round missing")
	}
	cancel()
	for range ch { // must terminate
	}
	if res := s.RunEpoch(5); res.TrueContrib == 0 {
		t.Fatal("session unusable after cancelled stream")
	}
}

// TestEpochsStartNoGoroutines pins the sequential epoch engine: an epoch
// runs entirely on the calling goroutine, so neither a simulator TD session
// nor a 4-member query set raises the goroutine count while it runs 20
// epochs — a host's parallelism lives in Pool, across deployments.
func TestEpochsStartNoGoroutines(t *testing.T) {
	dep := td.NewSyntheticDeployment(1, 250)
	dep.SetGlobalLoss(0.2)
	s, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTD))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	set := dep.NewQuerySet(7)
	defer set.Close()
	val := func(_, node int) float64 { return float64(node % 50) }
	for _, q := range []td.Query[float64]{td.Count(), td.Sum(val), td.Average(val), td.Min(val)} {
		if _, err := td.Open(dep, q, td.InSet(set)); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	for e := 0; e < 20; e++ {
		s.RunEpoch(e)
		set.RunEpoch(e)
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("epoch %d: %d goroutines live, %d before the run", e, n, before)
		}
	}
}
