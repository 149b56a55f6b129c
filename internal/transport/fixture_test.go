package transport_test

import (
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
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

// countingSim is a receive-accounting oracle: the simulator's delivery
// verdicts, plus the frames and bytes each receiver got from every delivery
// that returned true — exactly what an exactly-once backend must report as
// received.
type countingSim struct {
	nw                *network.Net
	rxFrames, rxBytes []int64
}

func newCountingSim(nw *network.Net) *countingSim {
	n := nw.Graph.N()
	return &countingSim{nw: nw, rxFrames: make([]int64, n), rxBytes: make([]int64, n)}
}

// Deliver implements runner.Transport.
func (c *countingSim) Deliver(epoch, attempt, from, to int, frame []byte) bool {
	if !c.nw.Delivered(epoch, attempt, from, to) {
		return false
	}
	c.rxFrames[to]++
	c.rxBytes[to] += int64(len(frame))
	return true
}
