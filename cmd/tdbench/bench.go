package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	td "tributarydelta"
)

// Bench mode: the BenchmarkEpochCount workload (one 600-node Count
// collection round at Global(0.2) loss) timed for TAG/SD/TD, written as a
// JSON artifact so the perf trajectory has dated datapoints that survive
// benchmark-log rot.

// benchNodes and benchLoss mirror BenchmarkEpochCount exactly.
const (
	benchNodes = 600
	benchLoss  = 0.2
	// benchWarmup epochs grow every pool and buffer AND let the TD delta
	// reach its oscillating equilibrium (expansions before that relabel
	// vertices and legitimately grow frame buffers, which would read as
	// steady-state allocation). 1000 epochs puts TD firmly at equilibrium,
	// so the allocs column reads a clean 0.
	benchWarmup = 1000
	// benchSamples batches of benchBatch epochs each are timed; the median
	// batch is reported, making the artifact robust to scheduler noise.
	benchSamples = 9
	benchBatch   = 20
)

// BenchResult is one scheme's measurement.
type BenchResult struct {
	// Scheme is the aggregation scheme ("TAG", "SD", "TD").
	Scheme string `json:"scheme"`
	// NsPerOp is the median epoch latency in nanoseconds.
	NsPerOp int64 `json:"nsPerOp"`
	// AllocsPerOp is the steady-state heap allocations per epoch.
	AllocsPerOp float64 `json:"allocsPerOp"`
	// BytesPerEpoch is the mean radio bytes transmitted per epoch (from the
	// session's wire-derived accounting), so the artifact tracks energy cost
	// next to latency.
	BytesPerEpoch float64 `json:"bytesPerEpoch"`
}

// PoolBenchResult is one multi-deployment throughput measurement: d hosted
// TD Count deployments advanced through a Pool in the given scheduling mode.
type PoolBenchResult struct {
	// Deployments is the hosted deployment count.
	Deployments int `json:"deployments"`
	// Mode is the pool scheduling mode ("lockstep" or "pipelined").
	Mode string `json:"mode"`
	// EpochsPerSec is the aggregate epoch throughput across all deployments
	// (median batch).
	EpochsPerSec float64 `json:"epochsPerSec"`
}

// BenchArtifact is the -bench output document.
type BenchArtifact struct {
	// GeneratedBy records the producing command.
	GeneratedBy string `json:"generatedBy"`
	// Cores is the host's logical CPU count; scaling numbers only mean
	// something relative to it.
	Cores int `json:"cores"`
	// GoMaxProcs is the scheduler bound the run used.
	GoMaxProcs int `json:"gomaxprocs"`
	// GoVersion, GOOS and GOARCH identify the toolchain and platform.
	GoVersion string `json:"goVersion"`
	// GOOS is the target operating system.
	GOOS string `json:"goos"`
	// GOARCH is the target architecture.
	GOARCH string `json:"goarch"`
	// Nodes and Epochs describe the workload shape.
	Nodes int `json:"nodes"`
	// Epochs is the timed batch size behind each sample.
	Epochs int `json:"epochs"`
	// Results holds the measurement grid.
	Results []BenchResult `json:"results"`
	// Pool holds the multi-deployment throughput rows (pipelined vs
	// lock-step scheduling at 4 hosted deployments).
	Pool []PoolBenchResult `json:"pool"`
}

// benchOne measures one scheme.
func benchOne(scheme td.Scheme) (BenchResult, error) {
	dep := td.NewSyntheticDeployment(1, benchNodes)
	dep.SetGlobalLoss(benchLoss)
	s, err := td.Open(dep, td.Count(), td.WithScheme(scheme))
	if err != nil {
		return BenchResult{}, err
	}
	defer s.Close()

	epoch := 0
	for ; epoch < benchWarmup; epoch++ {
		s.RunEpoch(epoch)
	}

	samples := make([]time.Duration, 0, benchSamples)
	var ms0, ms1 runtime.MemStats
	bytes0 := s.Stats().TotalBytes
	runtime.ReadMemStats(&ms0)
	for i := 0; i < benchSamples; i++ {
		start := time.Now()
		for j := 0; j < benchBatch; j++ {
			s.RunEpoch(epoch)
			epoch++
		}
		samples = append(samples, time.Since(start))
	}
	runtime.ReadMemStats(&ms1)
	bytes1 := s.Stats().TotalBytes
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	median := samples[len(samples)/2]
	measured := benchSamples * benchBatch
	return BenchResult{
		Scheme:        scheme.String(),
		NsPerOp:       median.Nanoseconds() / benchBatch,
		AllocsPerOp:   float64(ms1.Mallocs-ms0.Mallocs) / float64(measured),
		BytesPerEpoch: float64(bytes1-bytes0) / float64(measured),
	}, nil
}

// benchPool measures aggregate epoch throughput for deployments hosted TD
// Count sessions under both pool scheduling modes. The per-deployment field
// is smaller than benchNodes so the cell finishes in seconds; throughput
// ratios, not absolute epochs/s, are the signal.
func benchPool(deployments int, pipelined bool) (PoolBenchResult, error) {
	const poolNodes = 200
	p := td.NewPool(0)
	defer p.Close()
	for i := 0; i < deployments; i++ {
		dep := td.NewSyntheticDeployment(uint64(i+1), poolNodes)
		dep.SetGlobalLoss(benchLoss)
		s, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTD), td.WithSeed(uint64(i+1)))
		if err != nil {
			return PoolBenchResult{}, err
		}
		if err := p.Add(fmt.Sprintf("d%d", i), s); err != nil {
			return PoolBenchResult{}, err
		}
	}
	p.RunEpochs(50) // warm every hosted session
	p.SetPipelined(pipelined)
	samples := make([]time.Duration, 0, benchSamples)
	for i := 0; i < benchSamples; i++ {
		start := time.Now()
		for j := 0; j < benchBatch; j++ {
			p.RunEpochs(1)
		}
		p.Barrier()
		samples = append(samples, time.Since(start))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	median := samples[len(samples)/2]
	mode := "lockstep"
	if pipelined {
		mode = "pipelined"
	}
	return PoolBenchResult{
		Deployments:  deployments,
		Mode:         mode,
		EpochsPerSec: float64(benchBatch*deployments) / median.Seconds(),
	}, nil
}

// runBench produces the artifact at path and echoes it to stdout.
func runBench(path string) error {
	art := BenchArtifact{
		GeneratedBy: "cmd/tdbench -bench",
		Cores:       runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Nodes:       benchNodes,
		Epochs:      benchBatch,
	}
	for _, scheme := range []td.Scheme{td.SchemeTAG, td.SchemeSD, td.SchemeTD} {
		res, err := benchOne(scheme)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s  %10d ns/op  %7.1f allocs/op  %9.0f bytes/epoch\n",
			res.Scheme, res.NsPerOp, res.AllocsPerOp, res.BytesPerEpoch)
		art.Results = append(art.Results, res)
	}
	for _, pipelined := range []bool{false, true} {
		res, err := benchPool(4, pipelined)
		if err != nil {
			return err
		}
		fmt.Printf("pool x%d %-9s  %10.0f epochs/s\n", res.Deployments, res.Mode, res.EpochsPerSec)
		art.Pool = append(art.Pool, res)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cores)\n", path, art.Cores)
	return nil
}
