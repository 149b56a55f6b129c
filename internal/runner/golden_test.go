package runner

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/quantile"
	"tributarydelta/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden answer file")

// goldenEpoch is one recorded collection round.
type goldenEpoch struct {
	Answer      string `json:"answer"` // %.17g — exact float64 round-trip
	TrueContrib int    `json:"trueContrib"`
	DeltaSize   int    `json:"deltaSize"`
}

// goldenRun is one (aggregate, mode, seed) series.
type goldenRun struct {
	Agg    string        `json:"agg"`
	Mode   string        `json:"mode"`
	Seed   uint64        `json:"seed"`
	Epochs []goldenEpoch `json:"epochs"`
}

const goldenEpochs = 30

// goldenRuns executes the reference workloads under 25% global loss for
// seeds 1–3 across all four schemes: Count and Sum (sketch synopses), Average
// (a sketch pair) and Quantiles (a bottom-k sample plus a population sketch
// in the delta, precision-gradient summaries in the tributaries).
// newTransport, when non-nil, substitutes a Transport built over the runner's
// own Net — the lever that lets the same golden file pin alternative delivery
// backends.
func goldenRuns(t *testing.T, newTransport func(*network.Net) Transport) []goldenRun {
	t.Helper()
	var out []goldenRun
	for seed := uint64(1); seed <= 3; seed++ {
		f := newFixture(seed, 300)
		for _, mode := range []Mode{ModeTree, ModeMultipath, ModeTDCoarse, ModeTD} {
			g := goldenSetup{t: t, f: f, mode: mode, seed: seed, newTransport: newTransport}
			out = append(out,
				goldenSeries(g, "Count", aggregate.NewCount(seed),
					func(int, int) struct{} { return struct{}{} }, formatFloat),
				goldenSeries(g, "Sum", aggregate.NewSum(seed),
					func(_, node int) float64 { return float64(node % 50) }, formatFloat),
				goldenSeries(g, "Average", aggregate.NewAverage(seed),
					func(epoch, node int) float64 { return float64((node*7 + epoch) % 61) }, formatFloat),
				goldenSeries(g, "Quantiles", goldenQuantiles(f, seed),
					func(epoch, node int) float64 { return float64((node*13+epoch*5)%101) / 4 }, formatSummary),
			)
		}
		// The TD series above expand by the max/2 rule every 10 epochs, on the
		// aggregates' own 10-epoch reseeding windows. This one expands to the
		// 3rd-largest non-contributing subtree every 7 epochs, so decisions
		// fall inside reseeding windows and read the top-k statistics.
		g := goldenSetup{t: t, f: f, mode: ModeTD, seed: seed, newTransport: newTransport,
			topK: 3, adaptEvery: 7}
		out = append(out, goldenSeries(g, "Count", aggregate.NewCount(seed),
			func(int, int) struct{} { return struct{}{} }, formatFloat))
	}
	return out
}

// goldenSetup is the (fixture, scheme, seed, backend) a golden series runs on,
// with the §4.2 top-k and adaptation period left at their defaults when zero.
type goldenSetup struct {
	t            *testing.T
	f            fixture
	mode         Mode
	seed         uint64
	newTransport func(*network.Net) Transport
	topK         int
	adaptEvery   int
}

// goldenSeries runs one aggregate for goldenEpochs epochs and records each
// answer through format.
func goldenSeries[V, P, S, R any](g goldenSetup, name string, agg aggregate.Aggregate[V, P, S, R], value func(epoch, node int) V, format func(R) string) goldenRun {
	g.t.Helper()
	cfg := Config[V, P, S, R]{
		Graph: g.f.g, Rings: g.f.r, Tree: g.f.tr,
		Net:        network.New(g.f.g, network.Global{P: 0.25}, g.seed),
		Agg:        agg,
		Value:      value,
		Mode:       g.mode,
		Seed:       g.seed,
		TopK:       g.topK,
		AdaptEvery: g.adaptEvery,
	}
	if g.newTransport != nil {
		cfg.Transport = g.newTransport(cfg.Net)
	}
	r, err := New(cfg)
	if err != nil {
		g.t.Fatal(err)
	}
	mode := g.mode.String()
	if g.topK != 0 || g.adaptEvery != 0 {
		mode = fmt.Sprintf("%s/top%d/every%d", mode, g.topK, g.adaptEvery)
	}
	run := goldenRun{Agg: name, Mode: mode, Seed: g.seed}
	for _, res := range r.Run(goldenEpochs) {
		run.Epochs = append(run.Epochs, goldenEpoch{
			Answer:      format(res.Answer),
			TrueContrib: res.TrueContrib,
			DeltaSize:   res.DeltaSize,
		})
	}
	return run
}

// goldenQuantiles is the Quantiles aggregate as the facade configures it:
// a uniform ε = 0.02 precision gradient over the tree height, a 100-item
// delta sample and a 40-bitmap population sketch.
func goldenQuantiles(f fixture, seed uint64) *quantile.Agg {
	h := max(f.tr.Heights()[topo.Base], 1)
	return quantile.NewAgg(f.tr, seed, 100, 40, quantile.Uniform(0.02, h))
}

// formatFloat renders a scalar answer exactly (%.17g round-trips float64).
func formatFloat(v float64) string { return fmt.Sprintf("%.17g", v) }

// formatSummary renders a rank summary as its size, error, three quantiles
// and an FNV-64a digest of its lossless wire encoding — every entry, bit for
// bit, without writing hundreds of entries per epoch into the golden file.
func formatSummary(s *quantile.Summary) string {
	h := fnv.New64a()
	h.Write(s.AppendWire(nil))
	return fmt.Sprintf("n=%d eps=%.17g q10=%.17g q50=%.17g q90=%.17g wire=%016x",
		s.N, s.Eps, s.Quantile(0.1), s.Quantile(0.5), s.Quantile(0.9), h.Sum64())
}

// TestGoldenAnswers pins every scheme's per-epoch answers bit-for-bit against
// the pre-wire-refactor runner (Count, Sum) and the pre-bit-packing codecs
// (Average, Quantiles): the wire codec layer is required to be lossless, so
// transmitting real bytes — however they are packed — must not move a single
// answer.
func TestGoldenAnswers(t *testing.T) {
	path := filepath.Join("testdata", "golden_answers.json")
	got := goldenRuns(t, nil)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", path)
		return
	}
	compareGolden(t, got)
}

// compareGolden checks got against the pinned golden file.
func compareGolden(t *testing.T, got []goldenRun) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_answers.json"))
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Agg != w.Agg || g.Mode != w.Mode || g.Seed != w.Seed || len(g.Epochs) != len(w.Epochs) {
			t.Fatalf("run %d header mismatch: got %s/%s/%d×%d, want %s/%s/%d×%d",
				i, g.Agg, g.Mode, g.Seed, len(g.Epochs), w.Agg, w.Mode, w.Seed, len(w.Epochs))
		}
		for e := range w.Epochs {
			if g.Epochs[e] != w.Epochs[e] {
				t.Errorf("%s/%s seed %d epoch %d: got %+v, want %+v",
					w.Agg, w.Mode, w.Seed, e, g.Epochs[e], w.Epochs[e])
				break // report the first divergence per run
			}
		}
	}
}
