package tributarydelta_test

import (
	"context"
	"maps"
	"runtime"
	"testing"

	td "tributarydelta"
	"tributarydelta/internal/freq"
	"tributarydelta/internal/xrand"
)

var paritySchemes = []td.Scheme{td.SchemeTAG, td.SchemeSD, td.SchemeTDCoarse, td.SchemeTD}

const (
	parityEpochs  = 8
	paritySensors = 150
	parityLoss    = 0.25
)

func parityDep(t *testing.T, seed uint64) *td.Deployment {
	t.Helper()
	dep := td.NewSyntheticDeployment(seed, paritySensors)
	dep.SetGlobalLoss(parityLoss)
	return dep
}

// assertScalarParity drives a legacy scalar session and its Open-built
// counterpart in lock-step and requires bit-identical rounds and accounting.
func assertScalarParity(t *testing.T, name string, scheme td.Scheme, seed uint64,
	legacy, opened *td.Session[float64]) {
	t.Helper()
	for e := 0; e < parityEpochs; e++ {
		want, got := legacy.RunEpoch(e), opened.RunEpoch(e)
		if want != got {
			t.Fatalf("%s %v seed %d epoch %d: legacy %+v, query %+v", name, scheme, seed, e, want, got)
		}
	}
	if lw, gw := legacy.TotalWords(), opened.TotalWords(); lw != gw {
		t.Fatalf("%s %v seed %d: words %d vs %d", name, scheme, seed, lw, gw)
	}
	if ls, gs := legacy.Stats(), opened.Stats(); ls != gs {
		t.Fatalf("%s %v seed %d: stats %+v vs %+v", name, scheme, seed, ls, gs)
	}
}

// TestGoldenParityScalarQueries pins the tentpole's compatibility claim:
// every scalar dep.Open(Query…) session is bit-identical to its legacy
// NewXSession counterpart across all four schemes and seeds 1–3.
func TestGoldenParityScalarQueries(t *testing.T) {
	value := func(_, node int) float64 { return float64(node%30 + 1) }
	type scalarCase struct {
		name   string
		legacy func(d *td.Deployment, scheme td.Scheme, seed uint64) (*td.Session[float64], error)
		query  func() td.Query[float64]
	}
	cases := []scalarCase{
		{"Count",
			func(d *td.Deployment, scheme td.Scheme, seed uint64) (*td.Session[float64], error) {
				return td.NewCountSession(d, scheme, seed)
			},
			func() td.Query[float64] { return td.Count() }},
		{"Sum",
			func(d *td.Deployment, scheme td.Scheme, seed uint64) (*td.Session[float64], error) {
				return td.NewSumSession(d, scheme, seed, value)
			},
			func() td.Query[float64] { return td.Sum(value) }},
		{"Min",
			func(d *td.Deployment, scheme td.Scheme, seed uint64) (*td.Session[float64], error) {
				return td.NewMinSession(d, scheme, seed, value)
			},
			func() td.Query[float64] { return td.Min(value) }},
		{"Max",
			func(d *td.Deployment, scheme td.Scheme, seed uint64) (*td.Session[float64], error) {
				return td.NewMaxSession(d, scheme, seed, value)
			},
			func() td.Query[float64] { return td.Max(value) }},
		{"Average",
			func(d *td.Deployment, scheme td.Scheme, seed uint64) (*td.Session[float64], error) {
				return td.NewAverageSession(d, scheme, seed, value)
			},
			func() td.Query[float64] { return td.Average(value) }},
	}
	for _, tc := range cases {
		for _, scheme := range paritySchemes {
			for seed := uint64(1); seed <= 3; seed++ {
				dep := parityDep(t, seed)
				legacy, err := tc.legacy(dep, scheme, seed)
				if err != nil {
					t.Fatal(err)
				}
				opened, err := td.Open(dep, tc.query(), td.WithScheme(scheme), td.WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				assertScalarParity(t, tc.name, scheme, seed, legacy, opened)
			}
		}
	}
}

// TestGoldenParityMoments extends the parity pin to the Moments rounds.
func TestGoldenParityMoments(t *testing.T) {
	value := func(_, node int) float64 { return 10 + float64(node%7) }
	for _, scheme := range paritySchemes {
		for seed := uint64(1); seed <= 3; seed++ {
			dep := parityDep(t, seed)
			legacy, err := td.NewMomentsSession(dep, scheme, seed, value)
			if err != nil {
				t.Fatal(err)
			}
			opened, err := td.Open(dep, td.Moments(value), td.WithScheme(scheme), td.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < parityEpochs; e++ {
				want, got := legacy.RunEpoch(e), opened.RunEpoch(e)
				if want.Value != got.Answer || want.TrueContrib != got.TrueContrib ||
					want.DeltaSize != got.DeltaSize {
					t.Fatalf("Moments %v seed %d epoch %d: legacy %+v, query %+v", scheme, seed, e, want, got)
				}
			}
		}
	}
}

// TestGoldenParitySample extends the parity pin to the Sample rounds.
func TestGoldenParitySample(t *testing.T) {
	const k = 20
	value := func(_, node int) float64 { return float64(node) }
	for _, scheme := range paritySchemes {
		for seed := uint64(1); seed <= 3; seed++ {
			dep := parityDep(t, seed)
			legacy, err := td.NewSampleSession(dep, scheme, seed, k, value)
			if err != nil {
				t.Fatal(err)
			}
			opened, err := td.Open(dep, td.Sample(k, value), td.WithScheme(scheme), td.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < parityEpochs; e++ {
				want, got := legacy.RunEpoch(e), opened.RunEpoch(e)
				if want.TrueContrib != got.TrueContrib {
					t.Fatalf("Sample %v seed %d epoch %d: contrib %d vs %d", scheme, seed, e,
						want.TrueContrib, got.TrueContrib)
				}
				wi, gi := want.Sample.Items(), got.Answer.Items()
				if len(wi) != len(gi) {
					t.Fatalf("Sample %v seed %d epoch %d: %d vs %d items", scheme, seed, e, len(wi), len(gi))
				}
				for i := range wi {
					if wi[i] != gi[i] {
						t.Fatalf("Sample %v seed %d epoch %d item %d: %+v vs %+v", scheme, seed, e, i, wi[i], gi[i])
					}
				}
			}
		}
	}
}

// TestGoldenParityFrequentItems extends the parity pin to frequent items.
func TestGoldenParityFrequentItems(t *testing.T) {
	const perEpoch = 120
	items := func(epoch, node int) []freq.Item {
		src := xrand.NewSource(99, uint64(epoch), uint64(node))
		z := xrand.NewZipf(src, 200, 1.3)
		out := make([]freq.Item, perEpoch)
		for i := range out {
			out[i] = freq.Item(z.Draw())
		}
		return out
	}
	const epsilon, support = 0.002, 0.02
	expectedN := float64(paritySensors * perEpoch)
	for _, scheme := range paritySchemes {
		for seed := uint64(1); seed <= 3; seed++ {
			dep := parityDep(t, seed)
			legacy, err := td.NewFrequentItemsSession(dep, scheme, seed, items, epsilon, support, expectedN)
			if err != nil {
				t.Fatal(err)
			}
			opened, err := td.Open(dep, td.FrequentItems(items, support, expectedN),
				td.WithScheme(scheme), td.WithSeed(seed), td.WithEpsilon(epsilon))
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 3; e++ {
				want, got := legacy.RunEpoch(e), opened.RunEpoch(e)
				if want.NEst != got.Answer.NEst || want.TrueContrib != got.TrueContrib {
					t.Fatalf("FrequentItems %v seed %d epoch %d: %+v vs %+v", scheme, seed, e, want, got)
				}
				if len(want.Frequent) != len(got.Answer.Frequent) {
					t.Fatalf("FrequentItems %v seed %d epoch %d: frequent %v vs %v",
						scheme, seed, e, want.Frequent, got.Answer.Frequent)
				}
				for i := range want.Frequent {
					if want.Frequent[i] != got.Answer.Frequent[i] {
						t.Fatalf("FrequentItems %v seed %d epoch %d: frequent %v vs %v",
							scheme, seed, e, want.Frequent, got.Answer.Frequent)
					}
				}
				if !maps.Equal(want.Estimates, got.Answer.Estimates) {
					t.Fatalf("FrequentItems %v seed %d epoch %d: estimates diverge", scheme, seed, e)
				}
			}
		}
	}
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
	if _, err := td.Open(dep, td.Count(), td.InSet(own), td.WithConcurrentRuntime(true)); err == nil {
		t.Fatal("WithConcurrentRuntime combined with InSet must be rejected")
	}
}

// TestSessionCloseMidRunConcurrent pins the hard half of the Close
// contract: Close racing a Run on another goroutine must wait out the
// in-flight epoch before releasing the concurrent runtime — never a send
// on the closed node inboxes.
func TestSessionCloseMidRunConcurrent(t *testing.T) {
	for i := 0; i < 5; i++ {
		dep := td.NewSyntheticDeployment(8, 150)
		dep.SetGlobalLoss(0.2)
		dep.UseConcurrentRuntime(true)
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
		dep.UseConcurrentRuntime(true)
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
