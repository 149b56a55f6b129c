package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The arithmetic every later claim rests on.

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.1, 14}, {0.99, 49.6},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must be NaN, not a number that looks measured")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 1 - 10.0/999}, {500, 0.98}, {100, 0.9}, {20, 0.5}, {3, 0.5},
	} {
		if got := tailPercentile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestBestQuartile(t *testing.T) {
	// Unsorted on purpose: quartiles must not depend on slice order.
	sp := quartiles([]float64{5, 1, 4, 2, 3})
	if sp.Q1 != 2 || sp.Median != 3 || sp.Q3 != 4 || sp.N != 5 {
		t.Fatalf("quartiles = %+v", sp)
	}
	if got := sp.best(false); got != 2 {
		t.Errorf("lower-is-better reports %v, want the lower quartile", got)
	}
	if got := sp.best(true); got != 4 {
		t.Errorf("higher-is-better reports %v, want the upper quartile", got)
	}
	if got := sp.relSpread(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("relSpread = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(650, 520); got != 130 {
		t.Errorf("selfTime = %v", got)
	}
	// A child measured slower than its parent stays visible as a negative.
	if got := selfTime(500, 510); got != -10 {
		t.Errorf("selfTime = %v", got)
	}
	layer := []float64{110, 205, 330, 90}
	child := []float64{100, 200, 300, 95}
	// Differences 10, 5, 30, −5 → median 7.5; the medians' difference would
	// be 157.5 − 150 = 7.5 here too, but pairing is per epoch.
	if got := pairedSelf(layer, child); got != 7.5 {
		t.Errorf("pairedSelf = %v", got)
	}
}

func TestScaleSampled(t *testing.T) {
	if got := scaleSampled(10*time.Microsecond, 10, 160); got != 160*time.Microsecond {
		t.Errorf("scaleSampled = %v", got)
	}
	if got := scaleSampled(0, 0, 37); got != 0 {
		t.Errorf("nothing sampled must scale to 0, got %v", got)
	}
}

// slowTransport takes a fixed time per Deliver so the sampled total is known.
type slowTransport struct{ calls int }

func (s *slowTransport) Deliver(_, _, _, _ int, _ []byte) bool {
	s.calls++
	time.Sleep(50 * time.Microsecond)
	return true
}

func TestTimedTransportSamplesOneInSixteen(t *testing.T) {
	inner := &slowTransport{}
	tt := newTimedTransport(inner)
	tt.tr = newTracer(references{})
	tt.timing = true
	tt.beginEpochStats()
	const calls = 10 * deliverSampleEvery
	for i := 0; i < calls; i++ {
		if !tt.Deliver(0, 0, 1, 2, []byte("frame")) {
			t.Fatal("verdict not passed through")
		}
	}
	if inner.calls != calls || tt.calls != calls {
		t.Fatalf("inner saw %d, wrapper counted %d, want %d", inner.calls, tt.calls, calls)
	}
	if tt.sampled != calls/deliverSampleEvery {
		t.Fatalf("sampled %d calls, want %d", tt.sampled, calls/deliverSampleEvery)
	}
	if tt.frameBytes != calls*len("frame") {
		t.Errorf("frameBytes = %d", tt.frameBytes)
	}
	// Every call slept ≥50µs, so the scaled total must cover all 160 calls.
	if got := tt.transportTime(); got < calls*50*time.Microsecond {
		t.Errorf("scaled transport time %v is below %d × 50µs", got, calls)
	}
	// The simulator adapter keeps no barrier: the wrapper must not invent one.
	tt.BeginEpoch(0)
	tt.EndEpoch(0)
	if tt.beginNS != 0 || tt.endNS != 0 {
		t.Error("barrier time recorded for a transport without a barrier")
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "run_p50_ms"}
	thr := metricDef{Name: "epochs_per_s", HigherBetter: true}
	exact := metricDef{Name: "bytes_per_epoch", Exact: true}
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Median: v * 1.01, Q1: v, Q3: v * 1.02}
	}
	noisy := func(v float64) metricValue {
		return metricValue{Value: v, Median: v * 1.2, Q1: v, Q3: v * 1.5}
	}
	for _, tc := range []struct {
		name     string
		def      metricDef
		sameSeed bool
		old, cur metricValue
		want     verdict
	}{
		{"latency down 20%", lat, true, steady(1.0), steady(0.8), improved},
		{"latency up 5%", lat, true, steady(1.0), steady(1.05), within},
		{"latency up 12%", lat, true, steady(1.0), steady(1.12), regressed},
		{"throughput down 12%", thr, true, steady(1000), steady(880), regressed},
		{"throughput up 12%", thr, true, steady(1000), steady(1120), improved},
		{"noisy base", lat, true, noisy(1.0), steady(1.0), unresolved},
		{"noisy new hides a regression", lat, true, steady(1.0), noisy(1.3), unresolved},
		{"exact equal", exact, true, metricValue{Value: 151079.265}, metricValue{Value: 151079.265}, identical},
		{"exact moved either way", exact, true, metricValue{Value: 151079.265}, metricValue{Value: 151000}, changed},
		{"exact under another seed falls back to the bound", exact, false, metricValue{Value: 100}, metricValue{Value: 105}, within},
	} {
		got, _ := judge(tc.def, 0.10, tc.sameSeed, tc.old, tc.cur)
		if got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if !regressed.fails() || !changed.fails() || unresolved.fails() || within.fails() || improved.fails() {
		t.Error("only a regression or a changed exact metric may fail the comparison")
	}
}

func TestCompareResultsExitStatus(t *testing.T) {
	c := contract{EndToEnd: []contractMetric{{Name: "run_p50_ms", Bound: 0.1}}}
	mk := func(p50, failed float64) resultFile {
		m := map[string]metricValue{failedShare.Name: {Value: failed}}
		for _, d := range endToEndDefs {
			m[d.Name] = metricValue{Value: 1}
		}
		m["run_p50_ms"] = metricValue{Value: p50}
		return resultFile{Seed: 1, Workloads: []workloadResult{{Name: "sim-td", Metrics: m}}}
	}
	var sb strings.Builder
	if failed, _ := compareResults(&sb, c, mk(1, 0), mk(1.05, 0)); failed {
		t.Errorf("5%% inside a 10%% bound failed:\n%s", sb.String())
	}
	if failed, _ := compareResults(&sb, c, mk(1, 0), mk(1.5, 0)); !failed {
		t.Error("a 50% regression passed")
	}
	if failed, _ := compareResults(&sb, c, mk(1, 0), mk(1, 0.01)); !failed {
		t.Error("a risen failed_share passed")
	}
	if !strings.Contains(sb.String(), "new/base") {
		t.Error("ratios are printed without naming their base")
	}
}

// The response checker.

func goodRound(epoch int) roundResponse {
	return roundResponse{Epoch: epoch, Results: []queryResult{{Query: "Count", Answer: answer{Scalar: 512}, TrueContrib: 500, EstContrib: 498.5, DeltaSize: 40}}}
}

func TestCheckRounds(t *testing.T) {
	if err := checkRounds([]roundResponse{goodRound(7), goodRound(8)}, 7, 2, 1, 600); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	skipped := []roundResponse{goodRound(7), goodRound(9)}
	if err := checkRounds(skipped, 7, 2, 1, 600); err == nil || !strings.Contains(err.Error(), "non-consecutive") {
		t.Errorf("skipped epoch: %v", err)
	}
	if err := checkRounds([]roundResponse{goodRound(8)}, 7, 1, 1, 600); err == nil {
		t.Error("reply starting at the wrong epoch accepted")
	}
	nan := goodRound(7)
	nan.Results[0].Answer.Scalar = math.NaN()
	if err := checkRounds([]roundResponse{nan}, 7, 1, 1, 600); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN answer: %v", err)
	}
	inf := goodRound(7)
	inf.Results[0].Answer = answer{Quantiles: map[string]float64{"p50": math.Inf(1)}}
	if err := checkRounds([]roundResponse{inf}, 7, 1, 1, 600); err == nil {
		t.Error("infinite quantile accepted")
	}
	over := goodRound(7)
	over.Results[0].TrueContrib = 601
	if err := checkRounds([]roundResponse{over}, 7, 1, 1, 600); err == nil {
		t.Error("more contributors than sensors accepted")
	}
	if err := checkRounds([]roundResponse{goodRound(7)}, 7, 1, 2, 600); err == nil {
		t.Error("wrong result count accepted")
	}
	if err := checkRounds([]roundResponse{goodRound(7)}, 7, 2, 1, 600); err == nil {
		t.Error("short reply accepted")
	}
}

func TestCheckStats(t *testing.T) {
	if err := checkStats(statsResponse{Epochs: 1000}, 1000); err != nil {
		t.Fatalf("good stats rejected: %v", err)
	}
	if err := checkStats(statsResponse{Epochs: 1000, TransportErr: "shard 2: respawn budget exhausted"}, 1000); err == nil {
		t.Error("transportErr accepted")
	}
	if err := checkStats(statsResponse{Epochs: 1001}, 1000); err == nil {
		t.Error("an epoch the client did not drive accepted")
	}
}

func TestAnswerShapes(t *testing.T) {
	var rounds []roundResponse
	body := `[{"epoch":3,"results":[{"query":"Count","answer":299.5,"trueContrib":280,"estContrib":281.25,"deltaSize":9},` +
		`{"query":"Quantiles","answer":{"p25":12,"p50":24.5},"trueContrib":280,"estContrib":281.25,"deltaSize":9}]}]`
	if err := json.Unmarshal([]byte(body), &rounds); err != nil {
		t.Fatal(err)
	}
	r := rounds[0].Results
	if r[0].Answer.Scalar != 299.5 || r[1].Answer.Quantiles["p50"] != 24.5 {
		t.Fatalf("decoded %+v", r)
	}
	if !equalRound(rounds[0], rounds[0]) {
		t.Error("a round does not equal itself")
	}
	other := rounds[0]
	other.Results = append([]queryResult(nil), r...)
	other.Results[0].Answer.Scalar = math.Nextafter(299.5, 300)
	if equalRound(other, rounds[0]) {
		t.Error("one ulp of difference passed the bit-for-bit comparison")
	}
}

func TestProcParsers(t *testing.T) {
	line := "4242 (td serve) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 321 123 0 0 20 0 9 0 100 1000000 3000 18446744073709551615"
	if got, err := parseProcStat(line); err != nil || got != 444 {
		t.Errorf("parseProcStat = %d, %v; want utime+stime 444", got, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	status := []byte("Name:\ttdserve\nVmPeak:\t 1234 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n")
	if got, err := parseVmHWM(status); err != nil || got != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20 MiB", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("missing VmHWM accepted")
	}
}

// TestContractMatchesTables keeps BENCHMARK.json and the program's metric
// tables from drifting: the driver reads the names from the former and the
// values from the latter.
func TestContractMatchesTables(t *testing.T) {
	c, err := readContract("..")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			better := "lower"
			if d.HigherBetter {
				better = "higher"
			}
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %s [%s] %s", kind, i, m, d.Name, d.Unit, better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEndDefs, true)
	check("per_layer", c.PerLayer, perLayerDefs, false)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].Name)
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSpecsAreTheIssueConfigurations(t *testing.T) {
	req, err := json.Marshal(udpSpec.request("r0"))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":"r0","sensors":600,"seed":1,"loss":0.2,"scheme":"TD","aggregates":["count"],"transport":"udp","udpShards":4}`
	if string(req) != want {
		t.Errorf("udp-td create request:\n got %s\nwant %s", req, want)
	}
	fleet := fleetResidents(2)
	if len(fleet) != 4 || fleet[0].Scheme != "SD" || fleet[1].Scheme != "TD" || fleet[3].Seed != 4 || fleet[2].Loss != 0.1 {
		t.Errorf("fleet residents: %+v", fleet)
	}
	for _, w := range workloads {
		for _, s := range append(w.Residents(2), w.Ephemeral) {
			if s.Aggregates[0] != "count" {
				t.Errorf("%s: %s must list count first (the cost axes read result 0)", w.Name, s)
			}
		}
	}
}

// The end-to-end smoke: every workload through a real tdserve child.

func smokeConfig(t *testing.T) runConfig {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and starts tdserve")
	}
	dir := t.TempDir()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(context.Background(), root, dir)
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{ServerBin: bin, OutDir: dir, Seed: 1, Slices: 1, SliceDur: 300 * time.Millisecond, Setups: 1, NProc: 2, Refs: references{}}
}

func TestSmokeEveryWorkload(t *testing.T) {
	cfg := smokeConfig(t)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := runWorkloads(ctx, cfg, workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(workloads) {
		t.Fatalf("%d results for %d workloads", len(results), len(workloads))
	}
	byName := map[string]workloadResult{}
	for _, r := range results {
		byName[r.Name] = r
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d first=%s", r.Name, r.Correct, r.Attempted, r.Failed, r.FirstError)
		}
		line := driverLineOf(r, endToEndDefs)
		if !line.Correct || len(line.Metrics) != len(endToEndDefs) {
			t.Errorf("%s: driver line carries %d of %d metrics", r.Name, len(line.Metrics), len(endToEndDefs))
		}
		for name, m := range line.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s %s = %v; every end-to-end metric must be a positive measurement", r.Name, name, m.Value)
			}
		}
	}
	// udp-td is sim-td with another transport: the paper's axes must agree
	// to the last bit.
	for _, d := range endToEndDefs {
		if d.Exact && byName["udp-td"].Metrics[d.Name].Value != byName["sim-td"].Metrics[d.Name].Value {
			t.Errorf("%s: udp-td %v, sim-td %v", d.Name, byName["udp-td"].Metrics[d.Name].Value, byName["sim-td"].Metrics[d.Name].Value)
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

func TestDeadServerFailsInsteadOfHanging(t *testing.T) {
	cfg := smokeConfig(t)
	ctx := context.Background()
	w, _ := findWorkload("http-tag")
	hc := newHTTPClient(cfg.NProc)
	lw := &liveWorkload{w: w, cfg: cfg, rng: rand.New(rand.NewPCG(1, 2))}
	if _, err := lw.setUp(ctx, hc, 0); err != nil {
		t.Fatal(err)
	}
	defer lw.srv.stop()
	if err := lw.srv.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-lw.srv.exited
	before := lw.tally.failed.Load()
	start := time.Now()
	lw.runSlice(ctx)
	lw.runSlice(ctx)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("two slices against a dead server took %v", d)
	}
	if !lw.dead {
		t.Error("the workload did not notice its server died")
	}
	if got := lw.tally.failed.Load() - before; got < 2 {
		t.Errorf("%d failures booked for two slices against a dead server", got)
	}
	if res := lw.result(); res.Correct {
		t.Error("a workload whose server died reported correct")
	}
}
