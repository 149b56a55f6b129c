package runner

import (
	"math"
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/sample"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/topo"
)

// fixture bundles a topology for tests.
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

// countRunner builds a Count runner over the fixture.
func countRunner(t *testing.T, f fixture, mode Mode, model network.Model, seed uint64, opts ...func(*Config[struct{}, int64, *sketch.Sketch, float64])) *Runner[struct{}, int64, *sketch.Sketch, float64] {
	t.Helper()
	cfg := Config[struct{}, int64, *sketch.Sketch, float64]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, model, seed),
		Agg:   aggregate.NewCount(seed),
		Value: func(int, int) struct{} { return struct{}{} },
		Mode:  mode,
		Seed:  seed,
	}
	for _, o := range opts {
		o(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sumRunner builds a Sum runner with per-node readings node*1.0.
func sumRunner(t *testing.T, f fixture, mode Mode, model network.Model, seed uint64, opts ...func(*Config[float64, float64, *sketch.Sketch, float64])) *Runner[float64, float64, *sketch.Sketch, float64] {
	t.Helper()
	cfg := Config[float64, float64, *sketch.Sketch, float64]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, model, seed),
		Agg:   aggregate.NewSum(seed),
		Value: func(_, node int) float64 { return float64(node % 50) },
		Mode:  mode,
		Seed:  seed,
	}
	for _, o := range opts {
		o(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTreeModeLossFreeIsExact(t *testing.T) {
	f := newFixture(1, 300)
	r := countRunner(t, f, ModeTree, network.Global{P: 0}, 1)
	res := r.RunEpoch(0)
	want := float64(r.Sensors())
	if res.Answer != want {
		t.Fatalf("loss-free tree Count = %v, want exactly %v", res.Answer, want)
	}
	if res.TrueContrib != r.Sensors() {
		t.Fatalf("TrueContrib = %d, want %d", res.TrueContrib, r.Sensors())
	}
	if math.Abs(res.EstContrib-want) > 1e-9 {
		t.Fatalf("EstContrib = %v, want exact %v in pure tree", res.EstContrib, want)
	}
}

func TestSumTreeModeLossFreeIsExact(t *testing.T) {
	f := newFixture(2, 300)
	r := sumRunner(t, f, ModeTree, network.Global{P: 0}, 2)
	res := r.RunEpoch(0)
	want := r.ExactAnswer(0)
	if math.Abs(res.Answer-want) > 1e-9 {
		t.Fatalf("loss-free tree Sum = %v, want %v", res.Answer, want)
	}
}

func TestMultipathLossFreeApproximation(t *testing.T) {
	// SD with 40 bitmaps: ~12% approximation error, all nodes contributing.
	f := newFixture(3, 300)
	r := countRunner(t, f, ModeMultipath, network.Global{P: 0}, 3)
	res := r.RunEpoch(0)
	if res.TrueContrib != r.Sensors() {
		t.Fatalf("loss-free multipath should account all %d sensors, got %d", r.Sensors(), res.TrueContrib)
	}
	rel := math.Abs(res.Answer-float64(r.Sensors())) / float64(r.Sensors())
	if rel > 0.5 {
		t.Fatalf("multipath Count rel error %v too large", rel)
	}
}

func TestMultipathRobustUnderLoss(t *testing.T) {
	// At 30% loss, multipath should still account the large majority of
	// readings while tree loses whole subtrees (the Figure 2 contrast). The
	// residual multi-path loss is percolation over ring-boundary funnel
	// nodes, verified exactly in TestMultipathMatchesPercolation.
	f := newFixture(4, 600)
	sd := countRunner(t, f, ModeMultipath, network.Global{P: 0.3}, 4)
	tag := countRunner(t, f, ModeTree, network.Global{P: 0.3}, 4)
	var sdContrib, tagContrib int
	const epochs = 20
	for e := 0; e < epochs; e++ {
		sdContrib += sd.RunEpoch(e).TrueContrib
		tagContrib += tag.RunEpoch(e).TrueContrib
	}
	sdFrac := float64(sdContrib) / float64(epochs*sd.Sensors())
	tagFrac := float64(tagContrib) / float64(epochs*tag.Sensors())
	if sdFrac < 0.85 {
		t.Fatalf("multipath contribution %v under 30%% loss, want > 0.85", sdFrac)
	}
	if tagFrac > sdFrac-0.2 {
		t.Fatalf("tree contribution %v should be far below multipath %v", tagFrac, sdFrac)
	}
}

func TestDeterminism(t *testing.T) {
	f := newFixture(5, 200)
	a := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 5)
	b := countRunner(t, f, ModeTD, network.Global{P: 0.2}, 5)
	ra := a.Run(30)
	rb := b.Run(30)
	for i := range ra {
		if ra[i].Answer != rb[i].Answer || ra[i].TrueContrib != rb[i].TrueContrib ||
			ra[i].DeltaSize != rb[i].DeltaSize {
			t.Fatalf("epoch %d diverged between identical runs", i)
		}
	}
}

func TestTDExpandsUnderHighLoss(t *testing.T) {
	f := newFixture(7, 400)
	r := countRunner(t, f, ModeTD, network.Global{P: 0.4}, 7)
	res := r.Run(100)
	if res[len(res)-1].DeltaSize <= res[0].DeltaSize {
		t.Fatalf("delta region did not grow under 40%% loss: %d -> %d",
			res[0].DeltaSize, res[len(res)-1].DeltaSize)
	}
	if err := r.State().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTDCoarseExpandsUnderHighLoss(t *testing.T) {
	f := newFixture(8, 400)
	r := countRunner(t, f, ModeTDCoarse, network.Global{P: 0.4}, 8)
	res := r.Run(60)
	if res[len(res)-1].DeltaSize <= res[0].DeltaSize {
		t.Fatal("TD-Coarse delta did not grow under heavy loss")
	}
}

func TestTDShrinksUnderZeroLoss(t *testing.T) {
	f := newFixture(9, 300)
	r := countRunner(t, f, ModeTD, network.Global{P: 0}, 9,
		func(c *Config[struct{}, int64, *sketch.Sketch, float64]) { c.InitialDeltaLevels = 4 })
	first := r.RunEpoch(0).DeltaSize
	res := r.Run(100)
	last := res[len(res)-1].DeltaSize
	if last >= first {
		t.Fatalf("delta did not shrink under zero loss: %d -> %d", first, last)
	}
}

func TestTDImprovesContributionVsTree(t *testing.T) {
	f := newFixture(10, 400)
	tag := countRunner(t, f, ModeTree, network.Global{P: 0.3}, 10)
	td := countRunner(t, f, ModeTD, network.Global{P: 0.3}, 10)
	var tagC, tdC int
	for e := 0; e < 60; e++ {
		tagC += tag.RunEpoch(e).TrueContrib
		tdC += td.RunEpoch(e).TrueContrib
	}
	if tdC <= tagC {
		t.Fatalf("TD contribution %d should exceed tree %d under loss", tdC, tagC)
	}
}

func TestRetransmissionsImproveTree(t *testing.T) {
	f := newFixture(11, 300)
	plain := countRunner(t, f, ModeTree, network.Global{P: 0.3}, 11)
	retx := countRunner(t, f, ModeTree, network.Global{P: 0.3}, 11,
		func(c *Config[struct{}, int64, *sketch.Sketch, float64]) { c.TreeRetransmits = 2 })
	var p, q int
	for e := 0; e < 30; e++ {
		p += plain.RunEpoch(e).TrueContrib
		q += retx.RunEpoch(e).TrueContrib
	}
	if q <= p {
		t.Fatalf("retransmissions did not improve contribution: %d vs %d", q, p)
	}
	// Energy: retransmissions must cost extra transmissions.
	if retx.Stats.Transmissions[1] <= plain.Stats.Transmissions[1] &&
		retx.Stats.TotalWords() <= plain.Stats.TotalWords() {
		t.Fatal("retransmissions were free")
	}
}

func TestEnergyMinimalMessagesPerEpoch(t *testing.T) {
	// Both schemes send one transmission per node per epoch without
	// retransmissions (Table 1's "minimal" messages row).
	f := newFixture(12, 200)
	for _, mode := range []Mode{ModeTree, ModeMultipath} {
		r := countRunner(t, f, mode, network.Global{P: 0.1}, 12)
		const epochs = 10
		r.Run(epochs)
		var total int64
		for v := 1; v < f.g.N(); v++ {
			total += r.Stats.Transmissions[v]
		}
		want := int64(epochs * r.Sensors())
		if total != want {
			t.Fatalf("%v: %d transmissions, want %d (one per node per epoch)", mode, total, want)
		}
	}
}

func TestContribEstimateTracksTruth(t *testing.T) {
	f := newFixture(13, 400)
	r := countRunner(t, f, ModeMultipath, network.Global{P: 0.2}, 13)
	var est, truth float64
	for e := 0; e < 20; e++ {
		res := r.RunEpoch(e)
		est += res.EstContrib
		truth += float64(res.TrueContrib)
	}
	if math.Abs(est-truth)/truth > 0.35 {
		t.Fatalf("contribution estimate %v far from truth %v", est/20, truth/20)
	}
}

func TestTAGTreeSchedulingByDepth(t *testing.T) {
	// A TAG tree may use same-ring parents; pure tree mode must still
	// deliver exactly under zero loss thanks to depth scheduling.
	g := topo.NewRandomField(21, 300, 20, 20, topo.Point{X: 10, Y: 10}, 2.0)
	r := topo.BuildRings(g)
	tr := topo.BuildTAGTree(g, 21)
	run, err := New(Config[struct{}, int64, *sketch.Sketch, float64]{
		Graph: g, Rings: r, Tree: tr,
		Net:   network.New(g, network.Global{P: 0}, 21),
		Agg:   aggregate.NewCount(21),
		Value: func(int, int) struct{} { return struct{}{} },
		Mode:  ModeTree,
		Seed:  21,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := run.RunEpoch(0)
	if res.Answer != float64(run.Sensors()) {
		t.Fatalf("TAG-tree zero-loss Count = %v, want %v", res.Answer, run.Sensors())
	}
	if run.Levels() < r.Max {
		t.Fatalf("TAG tree depth %d cannot be below ring depth %d", run.Levels(), r.Max)
	}
}

func TestMinMaxExactInMultipath(t *testing.T) {
	f := newFixture(14, 200)
	mkVal := func(_, node int) float64 { return float64((node*37)%100) + 1 }
	rMin, err := New(Config[float64, float64, float64, float64]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, network.Global{P: 0}, 14),
		Agg:   aggregate.Min{},
		Value: mkVal, Mode: ModeMultipath, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rMin.RunEpoch(0)
	if res.Answer != rMin.ExactAnswer(0) {
		t.Fatalf("multipath Min = %v, want exact %v", res.Answer, rMin.ExactAnswer(0))
	}
	rMax, err := New(Config[float64, float64, float64, float64]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, network.Global{P: 0}, 15),
		Agg:   aggregate.Max{},
		Value: mkVal, Mode: ModeTD, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	res = rMax.RunEpoch(0)
	if res.Answer != rMax.ExactAnswer(0) {
		t.Fatalf("TD Max = %v, want exact %v", res.Answer, rMax.ExactAnswer(0))
	}
}

func TestAverageSanity(t *testing.T) {
	f := newFixture(16, 300)
	r, err := New(Config[float64, aggregate.AvgPartial, aggregate.AvgSynopsis, float64]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, network.Global{P: 0.1}, 16),
		Agg:   aggregate.NewAverage(16),
		Value: func(_, node int) float64 { return 50 + float64(node%10) },
		Mode:  ModeTD, Seed: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const epochs = 10
	for e := 0; e < epochs; e++ {
		sum += r.RunEpoch(e).Answer
	}
	mean := sum / epochs
	truth := r.ExactAnswer(0)
	if math.Abs(mean-truth)/truth > 0.3 {
		t.Fatalf("Average %v too far from truth %v", mean, truth)
	}
}

func TestUniformSampleFlows(t *testing.T) {
	f := newFixture(17, 200)
	const k = 20
	r, err := New(Config[float64, *sample.Sample, *sample.Sample, *sample.Sample]{
		Graph: f.g, Rings: f.r, Tree: f.tr,
		Net:   network.New(f.g, network.Global{P: 0.1}, 17),
		Agg:   aggregate.NewUniformSample(17, k),
		Value: func(_, node int) float64 { return float64(node) },
		Mode:  ModeTD, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunEpoch(0)
	if res.Answer.Len() != k {
		t.Fatalf("sample delivered %d items, want full capacity %d", res.Answer.Len(), k)
	}
	// Samples must be of distinct nodes.
	seen := map[int]bool{}
	for _, it := range res.Answer.Items() {
		if seen[it.Node] {
			t.Fatalf("node %d sampled twice — duplicate insensitivity broken", it.Node)
		}
		seen[it.Node] = true
	}
}

func TestConfigValidation(t *testing.T) {
	f := newFixture(18, 100)
	if _, err := New(Config[struct{}, int64, *sketch.Sketch, float64]{}); err == nil {
		t.Fatal("empty config must fail")
	}
	// TAG tree (same-ring parents possible) must be rejected in TD modes.
	tagTree := topo.BuildTAGTree(f.g, 18)
	if tagTree.LinksSubsetOfRings(f.g, f.r) {
		t.Skip("TAG tree happened to be rings-restricted")
	}
	_, err := New(Config[struct{}, int64, *sketch.Sketch, float64]{
		Graph: f.g, Rings: f.r, Tree: tagTree,
		Net:   network.New(f.g, network.Global{P: 0}, 18),
		Agg:   aggregate.NewCount(18),
		Value: func(int, int) struct{} { return struct{}{} },
		Mode:  ModeTD, Seed: 18,
	})
	if err == nil {
		t.Fatal("TD mode with non-restricted tree must be rejected")
	}
}

func TestStateStaysValidThroughAdaptation(t *testing.T) {
	f := newFixture(19, 300)
	r := countRunner(t, f, ModeTD, network.Regional{
		Region: network.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10},
		P1:     0.6, P2: 0.05, Pos: f.g.Pos,
	}, 19)
	for e := 0; e < 100; e++ {
		r.RunEpoch(e)
		if err := r.State().Validate(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
}

func TestRMSError(t *testing.T) {
	ans := []float64{90, 110}
	truth := []float64{100, 100}
	got := RMSError(ans, truth)
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RMSError = %v, want 0.1", got)
	}
	if !math.IsNaN(RMSError(nil, nil)) {
		t.Fatal("empty input should be NaN")
	}
	if !math.IsNaN(RMSError([]float64{1}, []float64{0})) {
		t.Fatal("zero truth should be NaN")
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeTree: "TAG", ModeMultipath: "SD", ModeTDCoarse: "TD-Coarse", ModeTD: "TD", Mode(9): "?",
	} {
		if m.String() != want {
			t.Fatalf("Mode %d string %q, want %q", m, m.String(), want)
		}
	}
}
