// Command bench is the repository's end-to-end benchmark: it builds
// cmd/tdserve, starts it as a child process on loopback, drives four named
// workloads over real HTTP, checks every answer and prints every metric by
// name with its unit. See README.md for the protocol and the metric list.
//
//	go run . [-seconds 30] [-seed 1]             all workloads, interleaved slices
//	go run . -trace 1                            the per-layer numbers and out/trace.json
//	go run . -workload sim-td -seconds 20 -seed 7 -trace 0
//	go run . -compare old.json new.json
//
// With -workload the last line of standard output is the one JSON object
// BENCHMARK.json's driver reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// sliceSeconds is the length of one measurement slice: long enough for 1000
// requests of the slowest workload, short against the host's 10–30 s drift.
const sliceSeconds = 2.0

// Per-run counts that are part of the benchmark's definition.
const (
	setupsPerRun = 2 // set-ups per workload; setup_s is their median
	traceSlices  = 3 // slices of the short end-to-end run inside a traced run
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the checkout that holds
// cmd/tdserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tdserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/tdserve above the working directory; pass -root")
		}
		dir = parent
	}
}

var errIncorrect = errors.New("a workload reported failed requests or checks")

func run() error {
	root := flag.String("root", "", "checkout root (default: found above the working directory)")
	name := flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all, interleaved)")
	seed := flag.Uint64("seed", 1, "workload seed: the fields of ephemeral deployments and fleet-churn's visiting order")
	seconds := flag.Float64("seconds", 30, "measuring time per workload")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics, out/trace.json) instead of the timed one")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	out := flag.String("out", "", "output directory (default <root>/bench/out)")
	flag.Parse()

	if *root == "" {
		r, err := findRoot()
		if err != nil {
			return err
		}
		*root = r
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return runCompare(*root, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if *out == "" {
		*out = filepath.Join(*root, "bench", "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	ws := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}

	// SIGINT and SIGTERM cancel the run; every server is stopped and reaped
	// by runWorkloads' deferred cleanup on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	bin, err := buildServer(ctx, *root, *out)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	slices := max(1, int(math.Round(*seconds/sliceSeconds)))
	cfg := runConfig{
		ServerBin: bin, OutDir: *out, Seed: *seed, NProc: nproc,
		Slices: slices, SliceDur: time.Duration(*seconds / float64(slices) * float64(time.Second)),
		Setups: setupsPerRun, Refs: references{},
	}
	hw := readHardware(nproc)

	var results []workloadResult
	defs, file := endToEndDefs, "result.json"
	if *trace == 1 {
		defs, file = perLayerDefs, "trace-metrics.json"
		cfg.Slices, cfg.Setups = min(cfg.Slices, traceSlices), 1
		t := newTracer(cfg.Refs)
		for _, w := range ws {
			res, err := t.traceWorkload(ctx, cfg, w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			results = append(results, res)
		}
		if err := writeTrace(filepath.Join(*out, "trace.json"), t); err != nil {
			return err
		}
	} else if results, err = runWorkloads(ctx, cfg, ws); err != nil {
		return err
	}

	printResults(os.Stdout, hw, defs, results)
	err = writeJSONFile(filepath.Join(*out, file), resultFile{
		Hardware: hw, Seed: *seed, Slices: cfg.Slices, SliceSeconds: cfg.SliceDur.Seconds(),
		Loopback: loopbackNote, Workloads: results,
	})
	if err != nil {
		return err
	}
	if *name != "" {
		line, err := json.Marshal(driverLineOf(results[0], defs))
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	for _, r := range results {
		if !r.Correct {
			return fmt.Errorf("%s: %w (first: %s)", r.Name, errIncorrect, r.FirstError)
		}
	}
	return nil
}

func runCompare(root, oldPath, newPath string) error {
	c, err := readContract(root)
	if err != nil {
		return err
	}
	old, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	failed, unresolvedN := compareResults(os.Stdout, c, old, cur)
	fmt.Printf("\n%d unresolved\n", unresolvedN)
	if failed {
		return errors.New("regression, changed exact metric or risen failed_share")
	}
	return nil
}
