package tributarydelta_test

// Facade coverage for the multi-process UDP runtime: WithUDPTransport and
// Deployment.UseUDPRuntime must yield sessions bit-identical to the
// simulator, the option conflicts must be rejected, a QuerySet must hammer
// the shared fleet through many lock-step rounds, and the query-set
// multiplexer's SetStats swap must keep per-member accounting exact.

import (
	"testing"

	td "tributarydelta"
	"tributarydelta/internal/quantile"
)

// TestUDPSessionMatchesSimulator opens the same Count query on the
// synchronous simulator and on the UDP fleet (deterministic mode): every
// epoch's full Result must be identical, the fleet must stay error-free, and
// the receive-side accounting must be populated with zero duplicates.
func TestUDPSessionMatchesSimulator(t *testing.T) {
	mk := func(opts ...td.Option) *td.Session[float64] {
		dep := td.NewSyntheticDeployment(3, 200)
		dep.SetGlobalLoss(0.25)
		s, err := td.Open(dep, td.Count(), append([]td.Option{td.WithSeed(11)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	sim := mk()
	udp := mk(td.WithUDPTransport(4))
	unbatched := mk(td.WithUDPTransport(4), td.WithDatagramBatching(false))
	for e := 0; e < 15; e++ {
		want := sim.RunEpoch(e)
		if got := udp.RunEpoch(e); want != got {
			t.Fatalf("epoch %d: simulator %+v, udp runtime %+v", e, want, got)
		}
		if got := unbatched.RunEpoch(e); want != got {
			t.Fatalf("epoch %d: simulator %+v, unbatched udp runtime %+v", e, want, got)
		}
	}
	if err := unbatched.TransportErr(); err != nil {
		t.Fatalf("unbatched udp session transport error: %v", err)
	}
	if err := udp.TransportErr(); err != nil {
		t.Fatalf("udp session transport error: %v", err)
	}
	if err := sim.TransportErr(); err != nil {
		t.Fatalf("simulator session reported a transport error: %v", err)
	}
	st := udp.Stats()
	if st.RxFrames == 0 {
		t.Fatal("udp session recorded no received frames")
	}
	if st.Duplicates != 0 {
		t.Fatalf("deterministic udp session recorded %d duplicates", st.Duplicates)
	}
}

// TestUDPDeploymentDefault pins the Deployment.UseUDPRuntime default and its
// per-session overrides in both directions.
func TestUDPDeploymentDefault(t *testing.T) {
	dep := td.NewSyntheticDeployment(4, 120)
	dep.SetGlobalLoss(0.2)
	dep.UseUDPRuntime(3)
	s, err := td.Open(dep, td.Count())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RunEpoch(0)
	if st := s.Stats(); st.RxFrames == 0 {
		t.Fatal("deployment-default udp session recorded no received frames")
	}
	// WithUDPTransport(0) opts this session back onto the in-process path.
	off, err := td.Open(dep, td.Count(), td.WithUDPTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.RunEpoch(0).Epoch != 0 {
		t.Fatal("opt-out session did not run")
	}
	// An explicit concurrent-runtime choice overrides the UDP default too.
	conc, err := td.Open(dep, td.Count(), td.WithConcurrentRuntime(true))
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	conc.RunEpoch(0)
}

// TestUDPOptionConflicts pins Open's rejection of contradictory runtime
// options.
func TestUDPOptionConflicts(t *testing.T) {
	dep := td.NewSyntheticDeployment(5, 80)
	if _, err := td.Open(dep, td.Count(), td.WithUDPTransport(2), td.WithConcurrentRuntime(true)); err == nil {
		t.Fatal("WithUDPTransport + WithConcurrentRuntime accepted")
	}
	set := dep.NewQuerySet(1)
	defer set.Close()
	if _, err := td.Open(dep, td.Count(), td.InSet(set), td.WithUDPTransport(2)); err == nil {
		t.Fatal("WithUDPTransport + InSet accepted")
	}
}

// TestQuerySetUDPHammer is the long-haul fleet exercise: four queries in one
// set over the shared UDP runtime, 50 lock-step rounds of real loopback
// datagrams and barriers, compared round-for-round against the identical set
// on the synchronous simulator.
func TestQuerySetUDPHammer(t *testing.T) {
	const seed, rounds = 7, 50
	value := func(_, node int) float64 { return float64(node%40 + 1) }
	run := func(udp bool) ([]td.SetRound, []td.SessionStats, *td.QuerySet) {
		dep := td.NewSyntheticDeployment(6, 150)
		dep.SetGlobalLoss(0.25)
		if udp {
			dep.UseUDPRuntime(4)
		}
		set, _, _, _ := openSetTrio(t, dep, seed)
		t.Cleanup(set.Close)
		if _, err := td.Open(dep, td.Average(value), td.InSet(set)); err != nil {
			t.Fatal(err)
		}
		return set.Run(0, rounds), set.MemberStats(), set
	}
	simRounds, _, simSet := run(false)
	udpRounds, udpStats, udpSet := run(true)
	if len(simRounds) != rounds || len(udpRounds) != rounds {
		t.Fatalf("completed %d/%d rounds", len(simRounds), len(udpRounds))
	}
	for e := range simRounds {
		for _, m := range []int{0, 1, 3} { // scalar members compare directly
			if simRounds[e].Results[m] != udpRounds[e].Results[m] {
				t.Fatalf("epoch %d member %d: sim %+v, udp %+v",
					e, m, simRounds[e].Results[m], udpRounds[e].Results[m])
			}
		}
		sq := simRounds[e].Results[2].(td.Result[*quantile.Summary])
		uq := udpRounds[e].Results[2].(td.Result[*quantile.Summary])
		if sq.TrueContrib != uq.TrueContrib || sq.Answer.N != uq.Answer.N ||
			sq.Answer.Quantile(0.5) != uq.Answer.Quantile(0.5) {
			t.Fatalf("epoch %d: quantile member diverged: %+v vs %+v", e, sq, uq)
		}
	}
	if err := udpSet.TransportErr(); err != nil {
		t.Fatalf("udp set transport error after %d rounds: %v", rounds, err)
	}
	if err := simSet.TransportErr(); err != nil {
		t.Fatalf("simulator set reported a transport error: %v", err)
	}
	for m, st := range udpStats {
		if st.RxFrames == 0 {
			t.Fatalf("member %d: udp runtime recorded no received frames: %+v", m, st)
		}
		if st.Duplicates != 0 {
			t.Fatalf("member %d: deterministic udp recorded %d duplicates", m, st.Duplicates)
		}
	}
}

// TestMuxSetStatsMatchStandalone is the regression for the multiplexer's
// SetStats swap: per-member receive accounting over the shared concurrent
// runtime, accumulated across two Run calls, must match standalone
// same-seed sessions exactly — for every member, with nothing skewed onto a
// neighbour's stats.
func TestMuxSetStatsMatchStandalone(t *testing.T) {
	const seed, half = 9, 10
	dep := td.NewSyntheticDeployment(8, 180)
	dep.SetGlobalLoss(0.3)
	dep.UseConcurrentRuntime(true)
	set, _, _, _ := openSetTrio(t, dep, seed)
	defer set.Close()
	set.Run(0, half)
	set.Run(half, half)
	got := set.MemberStats()

	value := func(_, node int) float64 { return float64(node%40 + 1) }
	want := standaloneStats(t, dep, seed, value, 2*half)
	for m := range got {
		if got[m].RxFrames != want[m].RxFrames {
			t.Fatalf("member %d: set rx frames %d, standalone %d (SetStats swap skewed)",
				m, got[m].RxFrames, want[m].RxFrames)
		}
		if got[m].TotalBytes != want[m].TotalBytes || got[m].Losses != want[m].Losses {
			t.Fatalf("member %d: set stats %+v, standalone %+v", m, got[m], want[m])
		}
	}
	// The set's receive accounting is per-member exact, so identical-traffic
	// scalar members must agree with each other too.
	if got[0].RxFrames != got[1].RxFrames {
		t.Fatalf("scalar members received %d vs %d frames", got[0].RxFrames, got[1].RxFrames)
	}
}

// standaloneStats runs each trio query standalone on the concurrent runtime
// with the set's seed for rounds epochs and returns their stats in trio
// order.
func standaloneStats(t *testing.T, dep *td.Deployment, seed uint64,
	value func(epoch, node int) float64, rounds int) []td.SessionStats {
	t.Helper()
	cnt, err := td.Open(dep, td.Count(), td.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer cnt.Close()
	sum, err := td.Open(dep, td.Sum(value), td.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer sum.Close()
	qnt, err := td.Open(dep, td.Quantiles(value), td.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer qnt.Close()
	cnt.Run(0, rounds)
	sum.Run(0, rounds)
	qnt.Run(0, rounds)
	return []td.SessionStats{cnt.Stats(), sum.Stats(), qnt.Stats()}
}
