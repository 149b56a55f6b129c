package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// The metric names. Every later performance or simplicity claim in this repo
// is stated in them; BENCHMARK.json carries the same names with their bounds
// and TestContractMatchesTables keeps the two from drifting.

// metricDef describes one reported metric.
type metricDef struct {
	Name, Unit   string
	HigherBetter bool
	// Exact marks a seeded quantity that repeats bit for bit: -compare
	// demands equality when both runs used the same seed, whatever the
	// bound says.
	Exact bool
}

// endToEndDefs are what a user of tdserve sees, per workload.
var endToEndDefs = []metricDef{
	{Name: "run_p50_ms", Unit: "ms"},                                  // client-observed request→full-answer latency of POST …/run, median
	{Name: "run_p99_ms", Unit: "ms"},                                  // the same, 99th percentile (or the highest percentile with ten samples beyond it)
	{Name: "epochs_per_s", Unit: "1/s", HigherBetter: true},           // epochs completed per second at the stated client count
	{Name: "cpu_us_per_epoch", Unit: "us"},                            // tdserve user+sys CPU per completed epoch
	{Name: "bytes_per_epoch", Unit: "B", Exact: true},                 // radio bytes per deployment-epoch over warm-up epochs [200,1000)
	{Name: "rms_rel_err", Unit: "ratio", Exact: true},                 // RMS of (Count answer − sensors)/sensors over the same window
	{Name: "contrib_pct", Unit: "%", HigherBetter: true, Exact: true}, // mean trueContrib/sensors over the same window
	{Name: "lifecycle_p50_ms", Unit: "ms"},                            // create → run 50 rounds → GET stats → DELETE of an ephemeral deployment
	{Name: "rss_mb", Unit: "MiB"},                                     // tdserve VmHWM at the end of the workload
	{Name: "setup_s", Unit: "s"},                                      // child start → ready → residents created → 1000-epoch warm-up done, median of the run's set-ups
}

// failedShare is reported beside the end-to-end metrics but is not one of
// BENCHMARK.json's: it is 0 on a healthy run, and the contract's own
// attempted/failed fields carry it.
var failedShare = metricDef{Name: "failed_share", Unit: "ratio"} // failed ÷ attempted requests; may not rise

func endToEndDef(name string) metricDef {
	if name == failedShare.Name {
		return failedShare
	}
	for _, d := range endToEndDefs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: unknown end-to-end metric " + name)
}

// perLayerDefs are the single-layer metrics of the traced run, named after
// the module they time.
var perLayerDefs = []metricDef{
	{Name: "tdserve.overhead_us", Unit: "us"},                  // run_p50_ms − pool.run_rounds_us on the workload's residents
	{Name: "tdserve.resp_bytes", Unit: "B"},                    // body size of the lifecycle cycle's 50-round reply
	{Name: "tdserve.create_ms", Unit: "ms"},                    // POST /v1/deployments of the ephemeral deployment
	{Name: "tdserve.stats_us", Unit: "us"},                     // GET …/stats
	{Name: "pool.run_rounds_us", Unit: "us"},                   // Pool.RunRounds(id, 1)
	{Name: "pool.self_us", Unit: "us"},                         // pool.run_rounds_us − queryset.run_epoch_us
	{Name: "pool.add_remove_us", Unit: "us"},                   // Pool.AddSet + Pool.Remove of an opened set
	{Name: "queryset.run_epoch_us", Unit: "us"},                // QuerySet.RunEpoch
	{Name: "queryset.self_us", Unit: "us"},                     // queryset.run_epoch_us − session.run_epoch_us
	{Name: "session.run_epoch_us", Unit: "us"},                 // Session.RunEpoch summed over the set's members
	{Name: "session.self_us", Unit: "us"},                      // the Count member's Session.RunEpoch − its runner's RunEpoch
	{Name: "facade.open_ms", Unit: "ms"},                       // NewSyntheticDeployment + NewQuerySet + Open of every member
	{Name: "runner.epoch_us.tag", Unit: "us"},                  // runner.RunEpoch, 600-sensor Count, TAG
	{Name: "runner.epoch_us.sd", Unit: "us"},                   // the same, SD
	{Name: "runner.epoch_us.td", Unit: "us"},                   // the same, TD at its §4.2 equilibrium
	{Name: "runner.self_us.tag", Unit: "us"},                   // epoch minus its transport spans, TAG
	{Name: "runner.self_us.sd", Unit: "us"},                    // the same, SD
	{Name: "runner.self_us.td", Unit: "us"},                    // the same, TD
	{Name: "runner.allocs_per_epoch", Unit: "count"},           // heap allocations per TD epoch
	{Name: "runner.alloc_bytes_per_epoch", Unit: "B"},          // heap bytes allocated per TD epoch
	{Name: "runner.frames_per_epoch", Unit: "count"},           // Deliver calls per TD epoch
	{Name: "runner.frame_bytes", Unit: "B"},                    // mean encoded frame size, TD
	{Name: "runner.delta_size", Unit: "count"},                 // delta region size after the TD warm-up
	{Name: "runner.adapt_extra_us", Unit: "us"},                // p50 of adaptation-boundary TD epochs − p50 of the rest
	{Name: "transport.sim.deliver_ns", Unit: "ns"},             // one Deliver on the simulator adapter
	{Name: "transport.udp.deliver_ns", Unit: "ns"},             // one Deliver on the UDP transport (verdict + batch packing)
	{Name: "transport.udp.barrier_us", Unit: "us"},             // EndEpoch: flush, sendmmsg, FLUSH/DONE round trip
	{Name: "transport.udp.datagrams_per_epoch", Unit: "count"}, // datagrams submitted per epoch
	{Name: "transport.udp.syscalls_per_epoch", Unit: "count"},  // send+receive socket syscalls per epoch
	{Name: "transport.udp.bytes_per_datagram", Unit: "B"},      // mean datagram payload
	{Name: "transport.udp.lost", Unit: "count"},                // frames the backend counted lost (0 in deterministic mode)
	{Name: "transport.udp.duplicates", Unit: "count"},          // duplicate frames shards discarded
	{Name: "transport.udp.degraded_epochs", Unit: "count"},     // shard-epochs spent dead
	{Name: "transport.udp.open_ms", Unit: "ms"},                // transport.NewUDP: sockets, 4 shards, join handshake
	{Name: "transport.udp.close_ms", Unit: "ms"},               // UDP.Close
	{Name: "wire.encode_ns", Unit: "ns"},                       // AppendEnvelope of a frame captured from sim-td
	{Name: "wire.decode_ns", Unit: "ns"},                       // Decoder.Decode of the same frames
	{Name: "wire.batch_pack_ns", Unit: "ns"},                   // AppendBatchFrame per frame, the epoch's frames packed into MTU-bounded batches
	{Name: "wire.batch_unpack_ns", Unit: "ns"},                 // DatagramBatch.Next per frame
	{Name: "sketch.union_ns", Unit: "ns"},                      // UnionAllInto, k=40, fan-in 8, per source
	{Name: "sketch.insert_ns", Unit: "ns"},                     // Sketch.Insert of one id
	{Name: "sketch.wire_ns", Unit: "ns"},                       // AppendWire + LoadWire of one captured sketch
	{Name: "aggregate.count.convert_ns", Unit: "ns"},           // Count.ConvertInto of a captured tree partial
	{Name: "aggregate.count.evalbase_ns", Unit: "ns"},          // Count.EvalBase over the base station's captured inbox
	{Name: "quantile.merge_prune_ns", Unit: "ns"},              // quantile.Merge + Prune of two real subtree summaries
	{Name: "tdgraph.expand_shrink_us", Unit: "us"},             // one ExpandCoarse or ShrinkCoarse over the field
	{Name: "network.delivered_ns", Unit: "ns"},                 // EpochView.Delivered over the epoch's real links
	{Name: "workload.synthetic_ms", Unit: "ms"},                // workload.NewSynthetic(seed, 600): field, rings, trees
	{Name: "trace.overhead_pct", Unit: "%"},                    // traced vs untraced runner.epoch_us.td
}

// metricValue is one reported number. Timing metrics carry the across-slice
// quartiles their best quartile was taken from.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	Slices int     `json:"slices,omitempty"`
	// PerSlice holds the slice values in the order they were measured.
	PerSlice []float64 `json:"perSlice,omitempty"`
}

// relSpread is the metric's across-slice quartile spread as a share of its
// median, 0 for metrics that are not per-slice.
func (m metricValue) relSpread() float64 {
	return spread{Q1: m.Q1, Median: m.Median, Q3: m.Q3}.relSpread()
}

// workloadResult is one workload's row.
type workloadResult struct {
	Name       string `json:"name"`
	Correct    bool   `json:"correct"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	FirstError string `json:"firstError,omitempty"`
	// Samples is the number of timed latency samples; TailPercentile is the
	// percentile run_p99_ms actually reports (0.99 when every slice had at
	// least 1000 samples).
	Samples        int                    `json:"samples"`
	TailPercentile float64                `json:"tailPercentile"`
	Metrics        map[string]metricValue `json:"metrics"`
}

// dropUnmeasured zeroes every metric that did not come out as a finite number
// (no slice completed, say) and marks the row incorrect: a NaN can neither be
// written as JSON nor pass for a measurement.
func (r *workloadResult) dropUnmeasured() {
	for name, m := range r.Metrics {
		if finite(m.Value) && finite(m.Median) && finite(m.Q1) && finite(m.Q3) {
			continue
		}
		r.Metrics[name] = metricValue{Unit: m.Unit}
		r.Correct = false
		if r.FirstError == "" {
			r.FirstError = "metric " + name + " could not be measured"
		}
	}
}

// hardware is the stanza every output carries.
type hardware struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // passed explicitly to tdserve
	GoVersion  string `json:"goVersion"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpuModel"`
}

func readHardware(nproc int) hardware {
	hw := hardware{NProc: nproc, GOMAXPROCS: nproc, GoVersion: runtime.Version(), Kernel: "unknown", CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		hw.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				hw.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return hw
}

// resultFile is bench/out/result.json (and trace-metrics.json): one complete
// set of runs.
type resultFile struct {
	Hardware     hardware         `json:"hardware"`
	Seed         uint64           `json:"seed"`
	Slices       int              `json:"slices"`
	SliceSeconds float64          `json:"sliceSeconds"`
	Loopback     string           `json:"network"`
	Workloads    []workloadResult `json:"workloads"`
}

// loopbackNote is the statement every result carries about its traffic.
const loopbackNote = "all traffic crossed the host's loopback interface only"

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResults writes the human-readable table: every metric by name with
// its unit, the best quartile first and the across-slice median and
// quartiles beside it.
func printResults(w io.Writer, hw hardware, defs []metricDef, results []workloadResult) {
	fmt.Fprintf(w, "hardware: nproc=%d GOMAXPROCS=%d %s kernel=%s cpu=%q\n", hw.NProc, hw.GOMAXPROCS, hw.GoVersion, hw.Kernel, hw.CPUModel)
	fmt.Fprintln(w, loopbackNote)
	for _, r := range results {
		fmt.Fprintf(w, "\n%s: correct=%v attempted=%d failed=%d samples=%d", r.Name, r.Correct, r.Attempted, r.Failed, r.Samples)
		if r.TailPercentile != 0 && r.TailPercentile != 0.99 {
			fmt.Fprintf(w, " (run_p99_ms reports p%.2f: a slice had fewer than 1000 samples)", 100*r.TailPercentile)
		}
		fmt.Fprintln(w)
		if r.FirstError != "" {
			fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
		}
		for _, d := range append(defs[:len(defs):len(defs)], failedShare) {
			m, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-6s", d.Name, m.Value, m.Unit)
			if m.Slices > 0 {
				fmt.Fprintf(w, " median %.4f  quartiles [%.4f, %.4f] over %d slices", m.Median, m.Q1, m.Q3, m.Slices)
			}
			fmt.Fprintln(w)
		}
	}
}

// contract is BENCHMARK.json as the benchmark itself reads it.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(root string) (contract, error) {
	var c contract
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLineOf keeps exactly the metrics defs names.
func driverLineOf(r workloadResult, defs []metricDef) driverLine {
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			line.Correct = false
			continue
		}
		line.Metrics[d.Name] = driverValue{Value: m.Value, Unit: d.Unit}
	}
	return line
}
