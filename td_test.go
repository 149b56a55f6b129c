package tributarydelta

import (
	"math"
	"testing"

	"tributarydelta/internal/freq"
	"tributarydelta/internal/xrand"
)

func TestCountSessionLossFreeTree(t *testing.T) {
	dep := NewSyntheticDeployment(1, 200)
	s, err := Open(dep, Count(), WithScheme(SchemeTAG), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunEpoch(0)
	if res.Answer != float64(s.Sensors()) {
		t.Fatalf("loss-free TAG Count = %v, want %d", res.Answer, s.Sensors())
	}
	if res.TrueContrib != s.Sensors() {
		t.Fatal("all sensors should contribute without loss")
	}
}

func TestSumSessionSchemes(t *testing.T) {
	dep := NewSyntheticDeployment(2, 200)
	dep.SetGlobalLoss(0.2)
	value := func(_, node int) float64 { return float64(node % 30) }
	for _, scheme := range []Scheme{SchemeTAG, SchemeSD, SchemeTDCoarse, SchemeTD} {
		s, err := Open(dep, Sum(value), WithScheme(scheme), WithSeed(2))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		res := s.Run(0, 20)
		if len(res) != 20 {
			t.Fatal("wrong result count")
		}
		truth := s.ExactAnswer(0)
		if truth <= 0 {
			t.Fatal("exact answer should be positive")
		}
		last := res[len(res)-1]
		if last.Answer < 0 || last.Answer > 3*truth {
			t.Fatalf("%v: answer %v wildly off truth %v", scheme, last.Answer, truth)
		}
		if s.TotalWords() <= 0 {
			t.Fatalf("%v: no energy accounted", scheme)
		}
		if s.TotalBytes() <= 0 || s.TotalBytes() > 4*s.TotalWords() {
			t.Fatalf("%v: byte accounting inconsistent: %d bytes, %d words",
				scheme, s.TotalBytes(), s.TotalWords())
		}
	}
}

func TestRegionalLossSetting(t *testing.T) {
	dep := NewSyntheticDeployment(3, 200)
	dep.SetRegionalLoss(0, 0, 10, 10, 0.9, 0)
	s, err := Open(dep, Count(), WithScheme(SchemeSD), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunEpoch(0)
	// Some nodes in the failure quadrant must be lost, the rest fine.
	if res.TrueContrib == s.Sensors() || res.TrueContrib < s.Sensors()/2 {
		t.Fatalf("regional loss gave contribution %d of %d", res.TrueContrib, s.Sensors())
	}
}

func TestLabDeployment(t *testing.T) {
	dep := NewLabDeployment(4)
	if dep.Sensors() != 54 {
		t.Fatalf("lab deployment has %d sensors, want 54", dep.Sensors())
	}
	if d := dep.DominationFactor(); d < 1.5 {
		t.Fatalf("lab domination factor %v too low", d)
	}
	s, err := Open(dep, Sum(dep.Scenario().Light), WithScheme(SchemeTD), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	var errSum float64
	const rounds = 30
	for e := 0; e < rounds; e++ {
		res := s.RunEpoch(e)
		truth := s.ExactAnswer(e)
		errSum += math.Abs(res.Answer-truth) / truth
	}
	if mean := errSum / rounds; mean > 0.6 {
		t.Fatalf("lab TD mean relative error %v too high", mean)
	}
}

func TestFrequentItemsSession(t *testing.T) {
	dep := NewSyntheticDeployment(5, 150)
	const perEpoch = 200
	items := func(epoch, node int) []freq.Item {
		src := xrand.NewSource(5, uint64(epoch), uint64(node))
		z := xrand.NewZipf(src, 300, 1.3)
		out := make([]freq.Item, perEpoch)
		for i := range out {
			out[i] = freq.Item(z.Draw())
		}
		return out
	}
	s, err := Open(dep, FrequentItems(items, 0.01, float64(dep.Sensors()*perEpoch)),
		WithScheme(SchemeTD), WithSeed(5), WithEpsilon(0.001))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunEpoch(0).Answer
	if len(res.Frequent) == 0 {
		t.Fatal("skewed stream must yield frequent items")
	}
	// Rank-0 is by construction the most frequent item and must be found.
	found := false
	for _, u := range res.Frequent {
		if u == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("the dominant item was not reported")
	}
	if res.NEst <= 0 {
		t.Fatal("N estimate missing")
	}
}

func TestFrequentItemsSessionValidation(t *testing.T) {
	dep := NewSyntheticDeployment(6, 100)
	items := func(int, int) []freq.Item { return nil }
	// Open reads epsilon 0 as "default support/10", so the non-positive
	// case is probed with a negative epsilon.
	if _, err := Open(dep, FrequentItems(items, 0.01, 100),
		WithScheme(SchemeTD), WithSeed(6), WithEpsilon(-0.001)); err == nil {
		t.Fatal("negative epsilon must be rejected")
	}
	if _, err := Open(dep, FrequentItems(items, 0.01, 100),
		WithScheme(SchemeTD), WithSeed(6), WithEpsilon(0.02)); err == nil {
		t.Fatal("support <= epsilon must be rejected")
	}
}

func TestDeploymentAccessors(t *testing.T) {
	dep := NewSyntheticDeployment(7, 120)
	rings := dep.Rings()
	if len(rings) != 121 {
		t.Fatalf("rings length %d, want 121", len(rings))
	}
	if rings[0] != 0 {
		t.Fatal("base station must be ring 0")
	}
	if dep.Model() == nil || dep.Scenario() == nil {
		t.Fatal("accessors returned nil")
	}
}
