// Command tdbench regenerates the paper's tables and figures, and records
// the engine's performance trajectory.
//
// Usage:
//
//	tdbench -exp fig5a            # one experiment, full scale
//	tdbench -exp all -quick       # everything, reduced scale
//	tdbench -list                 # list experiment ids
//	tdbench -bench                # epoch-engine timings -> -benchout JSON
//	tdbench -benchudp             # UDP data-plane timings -> BENCH_7.json
//	tdbench -chaos                # scripted fault schedule vs the UDP fleet
//
// Each experiment prints a table whose rows mirror the series of the
// corresponding paper artifact; DESIGN.md §4 records the calibration notes.
// The bench mode times the 600-node Count epoch (the BenchmarkEpochCount
// workload) for TAG/SD/TD, plus pool throughput at 4 hosted deployments,
// and writes the medians to a JSON artifact. The benchudp mode drives
// the same 600-node field over the real multi-process UDP runtime (k=4
// shards, loopback) with datagram coalescing on and off, in both barrier
// modes, recording epochs/sec, datagrams/epoch, bytes/datagram and socket
// syscalls/epoch (DESIGN.md §5).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tributarydelta/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	quick := flag.Bool("quick", false, "reduced workloads for a fast pass")
	seed := flag.Uint64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	bench := flag.Bool("bench", false, "run the epoch-engine benchmark and write -benchout")
	benchOut := flag.String("benchout", "BENCH_6.json", "bench mode: output artifact path")
	benchUDP := flag.Bool("benchudp", false, "run the UDP data-plane benchmark and write -benchudpout")
	benchUDPOut := flag.String("benchudpout", "BENCH_7.json", "benchudp mode: output artifact path")
	chaosMode := flag.Bool("chaos", false, "drive the supervised UDP fleet through a scripted fault schedule")
	chaosNode := flag.String("chaosnode", "", "chaos mode: tdnode binary for exec shards (enables the kill -9 fault; empty = in-process shards)")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *bench {
		if err := runBench(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchUDP {
		if err := runUDPBench(*benchUDPOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *chaosMode {
		if err := runChaos(*chaosNode); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("chaos: fleet recovered; answers bit-identical to the simulator")
		return
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		table, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		table.Fprint(os.Stdout)
		fmt.Printf("  (%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
