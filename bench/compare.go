package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare old.json new.json: the regression rule every later claim is held
// to, applied to two complete sets of runs with the bounds BENCHMARK.json
// fixes. Each workload is its own row block and every ratio is printed with
// its base.

// verdict is what -compare says about one metric on one workload.
type verdict string

const (
	improved   verdict = "improved"
	within     verdict = "within bound"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
	identical  verdict = "identical"
	changed    verdict = "CHANGED"
)

// fails reports whether the verdict makes -compare exit non-zero.
func (v verdict) fails() bool { return v == regressed || v == changed }

// judge compares one metric. worse is the relative change in the bad
// direction, as a share of the old value. A metric whose across-slice
// quartile spread (in either run) exceeds its bound is unresolved, not
// unchanged: the measurement cannot tell a change of the bound's size from
// noise.
func judge(def metricDef, bound float64, sameSeed bool, old, cur metricValue) (verdict, float64) {
	worse := (cur.Value - old.Value) / old.Value
	if def.HigherBetter {
		worse = -worse
	}
	if def.Exact && sameSeed {
		if cur.Value == old.Value {
			return identical, 0
		}
		return changed, worse
	}
	switch {
	case max(old.relSpread(), cur.relSpread()) > bound:
		return unresolved, worse
	case worse > bound:
		return regressed, worse
	case worse < -bound:
		return improved, worse
	}
	return within, worse
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareResults prints the comparison and reports whether any metric
// regressed, any exact metric changed or any failed_share rose, and how many
// metrics were unresolved.
func compareResults(w io.Writer, c contract, old, cur resultFile) (failed bool, unresolvedN int) {
	bounds := map[string]float64{}
	for _, m := range c.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	sameSeed := old.Seed == cur.Seed
	fmt.Fprintf(w, "base: seed %d, %d slices of %gs on %s\n", old.Seed, old.Slices, old.SliceSeconds, old.Hardware.CPUModel)
	fmt.Fprintf(w, "new:  seed %d, %d slices of %gs on %s\n", cur.Seed, cur.Slices, cur.SliceSeconds, cur.Hardware.CPUModel)
	byName := map[string]workloadResult{}
	for _, r := range old.Workloads {
		byName[r.Name] = r
	}
	for _, r := range cur.Workloads {
		o, ok := byName[r.Name]
		if !ok {
			fmt.Fprintf(w, "\n%s: not in the base run\n", r.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-18s %14s %14s %9s %7s %8s  %s\n", r.Name, "metric", "base", "new", "new/base", "bound", "spread", "verdict")
		for _, def := range endToEndDefs {
			om, okOld := o.Metrics[def.Name]
			nm, okNew := r.Metrics[def.Name]
			if !okOld || !okNew {
				fmt.Fprintf(w, "  %-18s missing from one run\n", def.Name)
				failed = true
				continue
			}
			v, _ := judge(def, bounds[def.Name], sameSeed, om, nm)
			failed = failed || v.fails()
			if v == unresolved {
				unresolvedN++
			}
			fmt.Fprintf(w, "  %-18s %14.4f %14.4f %9.4f %6.1f%% %7.1f%%  %s\n", def.Name, om.Value, nm.Value,
				nm.Value/om.Value, 100*bounds[def.Name], 100*max(om.relSpread(), nm.relSpread()), v)
		}
		of, nf := o.Metrics[failedShare.Name].Value, r.Metrics[failedShare.Name].Value
		v := within
		if nf > of {
			v, failed = regressed, true
		}
		fmt.Fprintf(w, "  %-18s %14.6f %14.6f %9s %7s %8s  %s\n", failedShare.Name, of, nf, "-", "0", "-", v)
	}
	return failed, unresolvedN
}
