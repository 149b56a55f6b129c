package tributarydelta

import (
	"math"
	"testing"
)

func TestMinMaxSessions(t *testing.T) {
	dep := NewSyntheticDeployment(11, 150)
	value := func(_, node int) float64 { return float64(100 + node) }
	minS, err := Open(dep, Min(value), WithScheme(SchemeSD), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	maxS, err := Open(dep, Max(value), WithScheme(SchemeSD), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	// Loss-free multi-path Min/Max are exact (§5: no approximation error).
	if got, want := minS.RunEpoch(0).Answer, minS.ExactAnswer(0); got != want {
		t.Fatalf("Min = %v, want %v", got, want)
	}
	if got, want := maxS.RunEpoch(0).Answer, maxS.ExactAnswer(0); got != want {
		t.Fatalf("Max = %v, want %v", got, want)
	}
}

func TestAverageSession(t *testing.T) {
	dep := NewSyntheticDeployment(12, 200)
	dep.SetGlobalLoss(0.1)
	s, err := Open(dep, Average(func(_, node int) float64 {
		return 40 + float64(node%21)
	}), WithScheme(SchemeTD), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const rounds = 15
	for e := 0; e < rounds; e++ {
		sum += s.RunEpoch(e).Answer
	}
	truth := s.ExactAnswer(0)
	if math.Abs(sum/rounds-truth)/truth > 0.3 {
		t.Fatalf("average %v too far from %v", sum/rounds, truth)
	}
}

func TestMomentsSession(t *testing.T) {
	dep := NewSyntheticDeployment(13, 150)
	s, err := Open(dep, Moments(func(_, node int) float64 {
		return 10 + float64(node%7)
	}), WithScheme(SchemeTAG), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunEpoch(0)
	want := s.ExactAnswer(0)
	if math.Abs(res.Answer.Mean-want.Mean) > 1e-9 {
		t.Fatalf("loss-free tree moments mean %v, want exact %v", res.Answer.Mean, want.Mean)
	}
	if math.Abs(res.Answer.Variance-want.Variance) > 1e-6 {
		t.Fatalf("variance %v, want %v", res.Answer.Variance, want.Variance)
	}
}

func TestSampleSession(t *testing.T) {
	dep := NewSyntheticDeployment(14, 150)
	dep.SetGlobalLoss(0.1)
	const k = 25
	s, err := Open(dep, Sample(k, func(_, node int) float64 {
		return float64(node)
	}), WithScheme(SchemeTD), WithSeed(14))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunEpoch(0)
	if res.Answer.Len() != k {
		t.Fatalf("sample size %d, want %d", res.Answer.Len(), k)
	}
	seen := map[int]bool{}
	for _, it := range res.Answer.Items() {
		if seen[it.Node] {
			t.Fatal("node sampled twice")
		}
		seen[it.Node] = true
	}
	if _, err := Open(dep, Sample(0, nil), WithScheme(SchemeTD), WithSeed(14)); err == nil {
		t.Fatal("zero capacity must be rejected")
	}
}

func TestAllSessionsAcrossSchemes(t *testing.T) {
	// Every query must open under every scheme.
	dep := NewSyntheticDeployment(15, 120)
	dep.SetGlobalLoss(0.2)
	value := func(_, node int) float64 { return float64(node%9 + 1) }
	for _, scheme := range []Scheme{SchemeTAG, SchemeSD, SchemeTDCoarse, SchemeTD} {
		opts := []Option{WithScheme(scheme), WithSeed(15)}
		if _, err := Open(dep, Min(value), opts...); err != nil {
			t.Fatalf("Min %v: %v", scheme, err)
		}
		if _, err := Open(dep, Max(value), opts...); err != nil {
			t.Fatalf("Max %v: %v", scheme, err)
		}
		if _, err := Open(dep, Average(value), opts...); err != nil {
			t.Fatalf("Average %v: %v", scheme, err)
		}
		if _, err := Open(dep, Moments(value), opts...); err != nil {
			t.Fatalf("Moments %v: %v", scheme, err)
		}
		if _, err := Open(dep, Sample(10, value), opts...); err != nil {
			t.Fatalf("Sample %v: %v", scheme, err)
		}
	}
}
