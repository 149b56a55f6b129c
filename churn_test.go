package tributarydelta

// Facade coverage for scripted node churn: a fixed WithChurn schedule —
// deaths, rejoins and a mid-run re-parent riding the §4.2 adaptation — must
// produce bit-identical answers across the sim/chan transports, must actually depress ground-truth contributions while nodes
// are down, and infeasible schedules must be rejected at Open.

import (
	"strings"
	"testing"
)

// findTDReparent derives a feasible TD-mode reparent from the deployment's
// topology: a reachable node with a second radio neighbour one ring closer
// than itself (§4.1 requires tree links to be rings links).
func findTDReparent(d *Deployment) (node, parent int, ok bool) {
	sc := d.scenario
	for v := 1; v < sc.Graph.N(); v++ {
		if !sc.Rings.Reachable(v) || sc.Tree.Parent[v] == -1 {
			continue
		}
		cur := sc.Tree.Parent[v]
		for _, u := range sc.Graph.Adj[v] {
			if u != cur && sc.Tree.InTree(u) && sc.Rings.Level[u] == sc.Rings.Level[v]-1 {
				return v, u, true
			}
		}
	}
	return 0, 0, false
}

// churnFixture builds the test's fixed schedule against a fresh deployment:
// two nodes die, the tree re-parents mid-outage, and both nodes rejoin.
func churnFixture(t *testing.T) (mk func() *Deployment, sched []ChurnEvent, downs []int) {
	t.Helper()
	mk = func() *Deployment {
		d := NewSyntheticDeployment(11, 200)
		d.SetGlobalLoss(0.2)
		return d
	}
	d := mk()
	node, parent, ok := findTDReparent(d)
	if !ok {
		t.Fatal("no feasible TD reparent in the fixture deployment")
	}
	for v := 1; v < d.scenario.Graph.N() && len(downs) < 2; v++ {
		if v != node && v != parent && d.scenario.Rings.Reachable(v) {
			downs = append(downs, v)
		}
	}
	if len(downs) != 2 {
		t.Fatal("fixture deployment has too few reachable sensors")
	}
	sched = []ChurnEvent{
		{Epoch: 3, Kind: ChurnDown, Node: downs[0]},
		{Epoch: 4, Kind: ChurnDown, Node: downs[1]},
		{Epoch: 7, Kind: ChurnReparent, Node: node, NewParent: parent},
		{Epoch: 9, Kind: ChurnUp, Node: downs[0]},
		{Epoch: 12, Kind: ChurnUp, Node: downs[1]},
	}
	return mk, sched, downs
}

// TestChurnGoldenMatrix pins the determinism contract under churn: the fixed
// schedule's 24 epochs — spanning two §4.2 adaptation periods — answer
// bit-identically over the sim and concurrent-channel transports, and the
// outage window demonstrably removes contributions relative to the same run
// without churn.
func TestChurnGoldenMatrix(t *testing.T) {
	mk, sched, _ := churnFixture(t)
	run := func(concurrent bool, churn []ChurnEvent) []Result[float64] {
		s, err := Open(mk(), Count(), WithSeed(11),
			WithConcurrentRuntime(concurrent), WithChurn(churn...))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if h := s.TransportHealth(); !h.Healthy() || len(h.Shards) != 0 {
			t.Fatalf("in-process backend reported fleet health %+v", h)
		}
		return s.Run(0, 24)
	}

	ref := run(false, sched)
	got := run(true, sched)
	for e := range ref {
		if got[e].Answer != ref[e].Answer || got[e].TrueContrib != ref[e].TrueContrib ||
			got[e].EstContrib != ref[e].EstContrib || got[e].DeltaSize != ref[e].DeltaSize {
			t.Fatalf("chan transport epoch %d: %+v diverged from the simulator's %+v", e, got[e], ref[e])
		}
	}

	// The schedule must have teeth: over the outage window the churned run's
	// ground-truth contributions drop below the undisturbed run's (same seed,
	// same loss realization — the only difference is the dead nodes).
	base := run(false, nil)
	churned, quiet := 0, 0
	for e := 4; e < 9; e++ {
		churned += ref[e].TrueContrib
		quiet += base[e].TrueContrib
	}
	if churned >= quiet {
		t.Fatalf("outage window did not depress contributions: churned %d, undisturbed %d", churned, quiet)
	}
	// After every node rejoined, churn and no-churn runs need not agree
	// (the reparent persists) but both must keep producing contributions.
	if ref[23].TrueContrib == 0 || base[23].TrueContrib == 0 {
		t.Fatalf("post-churn epochs stopped contributing: churned %d, undisturbed %d",
			ref[23].TrueContrib, base[23].TrueContrib)
	}
}

// TestChurnValidation pins Open's up-front schedule validation: every
// infeasible event class is rejected with a diagnostic naming the event.
func TestChurnValidation(t *testing.T) {
	mk, _, downs := churnFixture(t)
	n := mk().scenario.Graph.N()
	cases := []struct {
		name string
		ev   []ChurnEvent
		want string
	}{
		{"base station", []ChurnEvent{{Epoch: 1, Kind: ChurnDown, Node: 0}}, "base station"},
		{"out of range", []ChurnEvent{{Epoch: 1, Kind: ChurnDown, Node: n + 5}}, "out of range"},
		{"negative epoch", []ChurnEvent{{Epoch: -1, Kind: ChurnDown, Node: downs[0]}}, "negative epoch"},
		{"double down", []ChurnEvent{
			{Epoch: 1, Kind: ChurnDown, Node: downs[0]},
			{Epoch: 2, Kind: ChurnDown, Node: downs[0]},
		}, "already down"},
		{"up without down", []ChurnEvent{{Epoch: 1, Kind: ChurnUp, Node: downs[0]}}, "not down"},
		{"self parent", []ChurnEvent{
			{Epoch: 1, Kind: ChurnReparent, Node: downs[0], NewParent: downs[0]},
		}, "invalid new parent"},
		{"unknown kind", []ChurnEvent{{Epoch: 1, Kind: ChurnKind(99), Node: downs[0]}}, "unknown kind"},
	}
	for _, tc := range cases {
		_, err := Open(mk(), Count(), WithChurn(tc.ev...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Open error = %v, want %q", tc.name, err, tc.want)
		}
	}
}
