package tributarydelta_test

import (
	"context"
	"sync"
	"testing"

	td "tributarydelta"
	"tributarydelta/internal/quantile"
)

// openSetTrio opens {Count, Sum, Quantiles} as members of a fresh set over
// dep and returns the typed member sessions plus the set.
func openSetTrio(t testing.TB, dep *td.Deployment, seed uint64) (*td.QuerySet,
	*td.Session[float64], *td.Session[float64], *td.Session[*quantile.Summary]) {
	t.Helper()
	value := func(_, node int) float64 { return float64(node%40 + 1) }
	set := dep.NewQuerySet(seed)
	cnt, err := td.Open(dep, td.Count(), td.InSet(set))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := td.Open(dep, td.Sum(value), td.InSet(set))
	if err != nil {
		t.Fatal(err)
	}
	qnt, err := td.Open(dep, td.Quantiles(value), td.InSet(set))
	if err != nil {
		t.Fatal(err)
	}
	return set, cnt, sum, qnt
}

// TestQuerySetSharedLossRealization is the acceptance determinism test: a
// QuerySet running {Count, Sum, Quantiles} over one deployment uses a
// single shared loss realization per epoch — every member sees the same
// contributing set each round, members match standalone sessions opened on
// the same seed, and a different seed produces a different realization.
func TestQuerySetSharedLossRealization(t *testing.T) {
	const seed = 7
	dep := td.NewSyntheticDeployment(1, 250)
	dep.SetGlobalLoss(0.3)
	set, _, _, _ := openSetTrio(t, dep, seed)
	defer set.Close()
	if got := set.Names(); len(got) != 3 || got[0] != "Count" || got[1] != "Sum" || got[2] != "Quantiles" {
		t.Fatalf("names = %v", got)
	}

	// A standalone Count session on the set's seed samples the very same
	// loss realization.
	solo, err := td.Open(dep, td.Count(), td.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	// And one on another seed draws a different realization.
	other, err := td.Open(dep, td.Count(), td.WithSeed(seed+1))
	if err != nil {
		t.Fatal(err)
	}

	diverged := false
	for _, round := range set.Run(0, 20) {
		cnt := round.Results[0].(td.Result[float64])
		sum := round.Results[1].(td.Result[float64])
		qnt := round.Results[2].(td.Result[*quantile.Summary])
		if cnt.TrueContrib != sum.TrueContrib || cnt.TrueContrib != qnt.TrueContrib {
			t.Fatalf("epoch %d: contributing sets diverge across members: %d / %d / %d",
				round.Epoch, cnt.TrueContrib, sum.TrueContrib, qnt.TrueContrib)
		}
		if cnt.DeltaSize != sum.DeltaSize || cnt.DeltaSize != qnt.DeltaSize {
			t.Fatalf("epoch %d: adaptation diverges across members: %d / %d / %d",
				round.Epoch, cnt.DeltaSize, sum.DeltaSize, qnt.DeltaSize)
		}
		if want := solo.RunEpoch(round.Epoch); want != cnt {
			t.Fatalf("epoch %d: member Count %+v, standalone same-seed %+v", round.Epoch, cnt, want)
		}
		if other.RunEpoch(round.Epoch).TrueContrib != cnt.TrueContrib {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("a different seed never diverged — the shared-realization assertion is vacuous")
	}

	// Per-member stats stay separate: all accounted, and the quantile
	// member's messages are larger than the count member's.
	stats := set.MemberStats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d members", len(stats))
	}
	for i, st := range stats {
		if st.TotalBytes <= 0 {
			t.Fatalf("member %d unaccounted: %+v", i, st)
		}
	}
	if stats[2].TotalBytes <= stats[0].TotalBytes {
		t.Fatalf("quantiles bytes %d should exceed count bytes %d",
			stats[2].TotalBytes, stats[0].TotalBytes)
	}
}

// TestQuerySetUDPRuntimeParity pins the shared UDP runtime: a set on one
// shard fleet produces bit-identical rounds to the same set on the
// synchronous simulator, and its per-member receive accounting is populated
// by the multiplexer.
func TestQuerySetUDPRuntimeParity(t *testing.T) {
	const seed = 3
	mkRounds := func(udpShards int) ([]td.SetRound, []td.SessionStats) {
		dep := td.NewSyntheticDeployment(2, 200)
		dep.SetGlobalLoss(0.25)
		dep.UseUDPRuntime(udpShards)
		set, _, _, _ := openSetTrio(t, dep, seed)
		defer set.Close()
		return set.Run(0, 8), set.MemberStats()
	}
	simRounds, simStats := mkRounds(0)
	udpRounds, udpStats := mkRounds(4)
	for e := range simRounds {
		for m := 0; m < 2; m++ { // scalar members compare directly
			if simRounds[e].Results[m] != udpRounds[e].Results[m] {
				t.Fatalf("epoch %d member %d: sim %+v, udp %+v",
					e, m, simRounds[e].Results[m], udpRounds[e].Results[m])
			}
		}
		sq := simRounds[e].Results[2].(td.Result[*quantile.Summary])
		cq := udpRounds[e].Results[2].(td.Result[*quantile.Summary])
		if sq.TrueContrib != cq.TrueContrib || sq.Answer.N != cq.Answer.N ||
			sq.Answer.Quantile(0.5) != cq.Answer.Quantile(0.5) {
			t.Fatalf("epoch %d: quantile member diverged: %+v vs %+v", e, sq, cq)
		}
	}
	for m := range simStats {
		if simStats[m].TotalBytes != udpStats[m].TotalBytes {
			t.Fatalf("member %d: tx accounting diverged: %+v vs %+v", m, simStats[m], udpStats[m])
		}
		if udpStats[m].RxFrames <= 0 {
			t.Fatalf("member %d: udp runtime recorded no received frames: %+v", m, udpStats[m])
		}
	}
	// The multiplexer attributes receive work per member: scalar members
	// see the same frame counts under a shared loss realization.
	if udpStats[0].RxFrames != udpStats[1].RxFrames {
		t.Fatalf("scalar members received %d vs %d frames",
			udpStats[0].RxFrames, udpStats[1].RxFrames)
	}
}

// TestQuerySetStreamRace drives QuerySet.Stream under the UDP runtime
// while Close races the consumer — the -race exercise for the
// shared-transport multiplexer and the stream teardown path.
func TestQuerySetStreamRace(t *testing.T) {
	dep := td.NewSyntheticDeployment(5, 150)
	dep.SetGlobalLoss(0.2)
	dep.UseUDPRuntime(4)
	set, _, _, _ := openSetTrio(t, dep, 5)

	ctx := context.Background()
	ch := set.Stream(ctx, 0, 50)
	var rounds []td.SetRound
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := range ch {
			rounds = append(rounds, round)
			if len(rounds) == 5 {
				set.Close() // mid-stream teardown from the consumer side
			}
		}
	}()
	wg.Wait()
	if len(rounds) < 5 {
		t.Fatalf("only %d rounds before close", len(rounds))
	}
	for i, round := range rounds[:5] {
		if round.Epoch != i || len(round.Results) != 3 {
			t.Fatalf("round %d = %+v", i, round)
		}
	}
	set.Close() // idempotent

	// A closed set runs nothing and a new stream closes immediately.
	if round := set.RunEpoch(99); round.Results != nil {
		t.Fatalf("closed set round = %+v", round)
	}
	if _, ok := <-set.Stream(ctx, 0, 1); ok {
		t.Fatal("stream on closed set must be empty")
	}
}
