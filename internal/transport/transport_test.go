package transport_test

import (
	"testing"
	"time"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/transport"
	"tributarydelta/internal/wire"
)

// fixture bundles a topology for tests, mirroring the runner package's
// fixture so both suites exercise identical fields.
type fixture struct {
	g  *topo.Graph
	r  *topo.Rings
	tr *topo.Tree
}

func newFixture(seed uint64, n int) fixture {
	g := topo.NewRandomField(seed, n, 20, 20, topo.Point{X: 10, Y: 10}, 3.0)
	r := topo.BuildRings(g)
	tr := topo.BuildRestrictedTree(g, r, seed)
	topo.OpportunisticImprove(g, r, tr, seed, 4)
	return fixture{g: g, r: r, tr: tr}
}

func countRunner(t *testing.T, f fixture, mode runner.Mode, net *network.Net, seed uint64, tr runner.Transport) *runner.Runner[struct{}, int64, *sketch.Sketch, float64] {
	t.Helper()
	r, err := runner.New(runner.Config[struct{}, int64, *sketch.Sketch, float64]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   net,
		Agg:   aggregate.NewCount(seed),
		Value: func(int, int) struct{} { return struct{}{} },
		Mode:  mode, Seed: seed, Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// treeFrame builds a minimal valid tree-partial frame from the given sender.
func treeFrame(from int) []byte {
	return wire.AppendEnvelope(nil, &wire.Envelope{Kind: wire.KindTree, From: uint32(from), Contrib: 1})
}

// TestDeterministicMatchesSimulator pins the tentpole determinism property:
// with blocking enqueues, the concurrent goroutine-per-node runtime yields
// per-epoch results identical to the synchronous in-process simulator, for
// seeds 1–3 across tree, multi-path and adaptive modes.
func TestDeterministicMatchesSimulator(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		f := newFixture(seed, 250)
		for _, mode := range []runner.Mode{runner.ModeTree, runner.ModeMultipath, runner.ModeTD} {
			model := network.Global{P: 0.25}
			simNet := network.New(f.g, model, seed)
			chNet := network.New(f.g, model, seed)
			stats := network.NewStats(f.g.N())
			ch := transport.New(chNet, transport.Options{Deterministic: true, Stats: stats})
			simR := countRunner(t, f, mode, simNet, seed, nil)
			chR := countRunner(t, f, mode, chNet, seed, ch)
			for e := 0; e < 20; e++ {
				sim, con := simR.RunEpoch(e), chR.RunEpoch(e)
				if sim != con {
					t.Fatalf("seed %d %s epoch %d: simulator %+v, chan transport %+v", seed, mode, e, sim, con)
				}
			}
			if ch.Drops() != 0 {
				t.Fatalf("deterministic transport dropped %d frames", ch.Drops())
			}
			if got := ch.TotalProcessed(); got == 0 || got != stats.TotalRxFrames() {
				t.Fatalf("processed %d frames, stats recorded %d", got, stats.TotalRxFrames())
			}
			ch.Close()
		}
	}
}

// TestDropOnFull forces a bounded-inbox overflow: with capacity 1 and the
// worker blocked inside OnFrame, the third delivery must be refused and
// reported through network.Stats.
func TestDropOnFull(t *testing.T) {
	f := newFixture(1, 50)
	net := network.New(f.g, network.Global{P: 0}, 1)
	stats := network.NewStats(f.g.N())
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	ch := transport.New(net, transport.Options{
		InboxCap: 1,
		Stats:    stats,
		OnFrame: func(int, *wire.Envelope) {
			entered <- struct{}{}
			<-gate
		},
	})
	frame := treeFrame(2)
	if !ch.Deliver(0, 0, 2, 1, frame) {
		t.Fatal("first delivery refused")
	}
	<-entered // worker now holds frame 1; the inbox is empty again
	if !ch.Deliver(0, 0, 2, 1, frame) {
		t.Fatal("second delivery should fill the inbox")
	}
	if ch.Deliver(0, 0, 2, 1, frame) {
		t.Fatal("third delivery should drop on a full inbox")
	}
	if ch.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", ch.Drops())
	}
	close(gate)
	ch.EndEpoch(0)
	if got := ch.Processed(1); got != 2 {
		t.Fatalf("node 1 processed %d frames, want 2", got)
	}
	if stats.InboxDrops[1] != 1 || stats.TotalInboxDrops() != 1 {
		t.Fatalf("stats inbox drops = %v", stats.InboxDrops[1])
	}
	if stats.RxFrames[1] != 2 {
		t.Fatalf("stats rx frames = %d, want 2", stats.RxFrames[1])
	}
	ch.Close()
}

// TestEpochBarrier checks EndEpoch's guarantee: every frame delivered
// during the epoch has been fully processed — even with deliberately slow
// receivers — before EndEpoch returns.
func TestEpochBarrier(t *testing.T) {
	f := newFixture(2, 50)
	net := network.New(f.g, network.Global{P: 0}, 2)
	ch := transport.New(net, transport.Options{
		Deterministic: true,
		OnFrame:       func(int, *wire.Envelope) { time.Sleep(200 * time.Microsecond) },
	})
	defer ch.Close()
	ch.BeginEpoch(7)
	const frames = 25
	for i := 0; i < frames; i++ {
		to := 1 + i%5
		if !ch.Deliver(7, 0, 6+i%3, to, treeFrame(6+i%3)) {
			t.Fatalf("lossless delivery %d refused", i)
		}
	}
	ch.EndEpoch(7)
	if got := ch.TotalProcessed(); got != frames {
		t.Fatalf("after barrier: processed %d, want %d", got, frames)
	}
	if ch.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", ch.Epoch())
	}
}

// TestCloseIdempotent closes twice and checks the workers drained first.
func TestCloseIdempotent(t *testing.T) {
	f := newFixture(3, 50)
	net := network.New(f.g, network.Global{P: 0}, 3)
	ch := transport.New(net, transport.Options{})
	if !ch.Deliver(0, 0, 2, 1, treeFrame(2)) {
		t.Fatal("lossless delivery refused")
	}
	ch.Close()
	ch.Close()
	if got := ch.Processed(1); got != 1 {
		t.Fatalf("processed %d, want 1 (Close must drain)", got)
	}
}
