package tributarydelta_test

import (
	"fmt"
	"sync"
	"testing"

	td "tributarydelta"
)

// poolCountSession opens a TD Count session on a fresh deployment, over the
// UDP runtime with the given shard count (0: the simulator).
func poolCountSession(t testing.TB, seed uint64, n int, udpShards int) *td.Session[float64] {
	t.Helper()
	dep := td.NewSyntheticDeployment(seed, n)
	dep.SetGlobalLoss(0.25)
	dep.UseUDPRuntime(udpShards)
	s, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTD), td.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPoolRunEpochsMatchesSolo pins the pool's core contract: hosting a
// deployment changes nothing about its answers — epoch numbering continues
// across RunEpochs calls and every result equals a solo session's.
func TestPoolRunEpochsMatchesSolo(t *testing.T) {
	p := td.NewPool(4)
	defer p.Close()
	const deployments = 3
	for i := 0; i < deployments; i++ {
		if err := p.Add(fmt.Sprintf("d%d", i), poolCountSession(t, uint64(i+1), 150, 0)); err != nil {
			t.Fatal(err)
		}
	}
	first := p.RunEpochs(4)
	second := p.RunEpochs(3)
	if len(first) != deployments || len(second) != deployments {
		t.Fatalf("result sets: %d then %d deployments, want %d", len(first), len(second), deployments)
	}
	for i := 0; i < deployments; i++ {
		id := fmt.Sprintf("d%d", i)
		solo := poolCountSession(t, uint64(i+1), 150, 0)
		got := append(append([]td.SetRound(nil), first[id]...), second[id]...)
		for e, round := range got {
			want := solo.RunEpoch(e)
			if res := scalarOf(t, round); res != want {
				t.Fatalf("%s epoch %d: pooled %+v, solo %+v", id, e, res, want)
			}
		}
		st, ok := p.Status(id)
		if !ok || st.Epochs != 7 || scalarOf(t, st.Last) != scalarOf(t, got[6]) {
			t.Fatalf("%s status = %+v ok=%v, want 7 epochs ending %+v", id, st, ok, got[6])
		}
		if st.Stats.TotalBytes <= 0 || st.Sensors <= 0 {
			t.Fatalf("%s status missing accounting: %+v", id, st)
		}
		if len(st.Queries) != 1 || st.Queries[0] != "Count" {
			t.Fatalf("%s queries = %v", id, st.Queries)
		}
	}
}

// TestPoolUDPRuntimeSessions hosts sessions that themselves run the UDP
// shard fleet: nested concurrency must still reproduce the simulator
// answers.
func TestPoolUDPRuntimeSessions(t *testing.T) {
	p := td.NewPool(2)
	defer p.Close()
	if err := p.Add("udp", poolCountSession(t, 9, 150, 4)); err != nil {
		t.Fatal(err)
	}
	got, err := p.RunDeployment("udp", 5)
	if err != nil {
		t.Fatal(err)
	}
	solo := poolCountSession(t, 9, 150, 0)
	for e, round := range got {
		if res, want := scalarOf(t, round), solo.RunEpoch(e); res != want {
			t.Fatalf("epoch %d: udp-runtime %+v, simulator %+v", e, res, want)
		}
	}
}

// scalarOf extracts the single scalar result of a one-query round.
func scalarOf(t testing.TB, round td.SetRound) td.Result[float64] {
	t.Helper()
	if len(round.Results) != 1 {
		t.Fatalf("round has %d results, want 1: %+v", len(round.Results), round)
	}
	res, ok := round.Results[0].(td.Result[float64])
	if !ok {
		t.Fatalf("round result is %T, want Result[float64]", round.Results[0])
	}
	return res
}

// TestPoolLifecycle exercises Add/Remove/IDs error paths and concurrent use
// of the pool's public surface.
func TestPoolLifecycle(t *testing.T) {
	p := td.NewPool(0) // GOMAXPROCS default
	if p.Workers() < 1 {
		t.Fatalf("workers = %d", p.Workers())
	}
	s := poolCountSession(t, 1, 120, 0)
	if err := p.Add("a", s); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("a", poolCountSession(t, 2, 120, 0)); err == nil {
		t.Fatal("duplicate Add should fail")
	}
	if err := p.Add("nil", nil); err == nil {
		t.Fatal("nil session Add should fail")
	}
	if _, err := p.RunDeployment("ghost", 1); err == nil {
		t.Fatal("RunDeployment on unknown id should fail")
	}
	if _, ok := p.Status("ghost"); ok {
		t.Fatal("Status on unknown id should report absence")
	}
	if got := p.IDs(); len(got) != 1 || got[0] != "a" || p.Len() != 1 {
		t.Fatalf("ids = %v len = %d", got, p.Len())
	}

	// Hammer the pool from several goroutines: runs, status and removals
	// must interleave safely (-race is the real assertion here). The
	// UDP-runtime sessions own real sockets and shard goroutines, so a
	// Remove racing a snapshotted RunEpochs would run an epoch over a torn-
	// down fleet if the pool ever ran a closed session.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("g%d", g)
			if err := p.Add(id, poolCountSession(t, uint64(10+g), 120, 4)); err != nil {
				t.Error(err)
				return
			}
			if _, err := p.RunDeployment(id, 2); err != nil {
				t.Error(err)
			}
			p.RunEpochs(1)
			if _, ok := p.Status(id); !ok {
				t.Errorf("%s vanished", id)
			}
			p.Remove(id)
			if _, err := p.RunDeployment(id, 1); err == nil {
				t.Errorf("%s: run after remove should fail", id)
			}
		}(g)
	}
	wg.Wait()
	if !p.Remove("a") || p.Remove("a") {
		t.Fatal("Remove should succeed once then report absence")
	}
	if p.Len() != 0 {
		t.Fatalf("pool not empty: %v", p.IDs())
	}
}

// TestPoolPipelinedMatchesLockStep pins the pipelined mode's core contract:
// enqueue-and-return scheduling changes only when results arrive, never what
// they are — every deployment's answer sequence equals the lock-step (and
// hence solo) sequence, with epoch numbering continuous across enqueues and
// barriers.
func TestPoolPipelinedMatchesLockStep(t *testing.T) {
	p := td.NewPool(4)
	defer p.Close()
	const deployments = 3
	for i := 0; i < deployments; i++ {
		if err := p.Add(fmt.Sprintf("d%d", i), poolCountSession(t, uint64(i+1), 150, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if out := p.SetPipelined(true); out != nil {
		t.Fatalf("SetPipelined(true) = %v, want nil", out)
	}
	if out := p.RunEpochs(4); out != nil {
		t.Fatalf("pipelined RunEpochs returned %v, want nil", out)
	}
	p.RunEpochs(2)
	mid := p.Barrier()
	p.RunEpochs(3)
	rest := p.Barrier()
	if again := p.Barrier(); len(again) != 0 {
		t.Fatalf("second barrier rebanked rounds: %v", again)
	}
	for i := 0; i < deployments; i++ {
		id := fmt.Sprintf("d%d", i)
		got := append(append([]td.SetRound(nil), mid[id]...), rest[id]...)
		if len(got) != 9 {
			t.Fatalf("%s: %d rounds banked, want 9", id, len(got))
		}
		solo := poolCountSession(t, uint64(i+1), 150, 0)
		for e, round := range got {
			if round.Epoch != e {
				t.Fatalf("%s: round %d labeled epoch %d", id, e, round.Epoch)
			}
			if res, want := scalarOf(t, round), solo.RunEpoch(e); res != want {
				t.Fatalf("%s epoch %d: pipelined %+v, solo %+v", id, e, res, want)
			}
		}
		if st, ok := p.Status(id); !ok || st.Epochs != 9 {
			t.Fatalf("%s status = %+v ok=%v, want 9 epochs", id, st, ok)
		}
	}
}

// TestPoolPipelinedToggle flips pipelining mid-run: the switch-off drains
// and returns the banked rounds like a final barrier, and the subsequent
// lock-step rounds continue the same epoch sequence.
func TestPoolPipelinedToggle(t *testing.T) {
	p := td.NewPool(2)
	defer p.Close()
	if err := p.Add("a", poolCountSession(t, 5, 150, 0)); err != nil {
		t.Fatal(err)
	}
	p.SetPipelined(true)
	p.RunEpochs(3)
	drained := p.SetPipelined(false)
	if len(drained["a"]) != 3 {
		t.Fatalf("SetPipelined(false) drained %d rounds, want 3", len(drained["a"]))
	}
	lock := p.RunEpochs(2)
	got := append(append([]td.SetRound(nil), drained["a"]...), lock["a"]...)
	solo := poolCountSession(t, 5, 150, 0)
	for e, round := range got {
		if round.Epoch != e {
			t.Fatalf("round %d labeled epoch %d", e, round.Epoch)
		}
		if res, want := scalarOf(t, round), solo.RunEpoch(e); res != want {
			t.Fatalf("epoch %d: %+v, solo %+v", e, res, want)
		}
	}
}

// TestPoolPipelinedHammer drives a 16-deployment pipelined pool from several
// goroutines — enqueues, barriers, status probes, removals and mode toggles
// interleaving (-race is the real assertion). Removed deployments may drop
// queued rounds; the invariant checked is that barriers return and the pool
// ends quiescent and empty.
func TestPoolPipelinedHammer(t *testing.T) {
	p := td.NewPool(4)
	defer p.Close()
	const deployments = 16
	for i := 0; i < deployments; i++ {
		if err := p.Add(fmt.Sprintf("h%d", i), poolCountSession(t, uint64(20+i), 100, 0)); err != nil {
			t.Fatal(err)
		}
	}
	p.SetPipelined(true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				p.RunEpochs(2)
				if g == 0 {
					p.Barrier()
				}
				p.Status(fmt.Sprintf("h%d", (g*5+it)%deployments))
				if g == 1 && it == 1 {
					p.Remove(fmt.Sprintf("h%d", deployments-1))
				}
				if g == 2 && it == 2 {
					p.SetPipelined(false)
					p.SetPipelined(true)
				}
			}
		}(g)
	}
	wg.Wait()
	p.Barrier()
	p.SetPipelined(false)
	if got := p.Len(); got != deployments-1 {
		t.Fatalf("pool has %d deployments after hammer, want %d", got, deployments-1)
	}
}
