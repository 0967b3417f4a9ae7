package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles applies the benchmark's own bounds to two result files,
// each a set of runs of every workload (-runs N): one row per (workload,
// end-to-end metric), base first. Each side's value is the median over its
// runs and its noise the runs' interquartile range as a share of that
// median, the figure the driver computes. A row is
//
//	ok          b is no worse than a by more than the metric's bound
//	worse       it is
//	unresolved  a side's runs spread wider than the bound, or a side has
//	            fewer than three runs and so no spread at all: neither
//	            "worse" nor "unchanged" can be said
//	info        the row restates the load generator (spec.go); no verdict
//
// It returns 0 when no row is worse.
func compareFiles(w io.Writer, aPath, bPath string) int {
	a, err := readRunFile(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clue-e2e:", err)
		return 2
	}
	b, err := readRunFile(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clue-e2e:", err)
		return 2
	}
	return compareRuns(w, a, b)
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func compareRuns(w io.Writer, a, b *runFile) int {
	fmt.Fprintln(w, "# workload metric base new change bound spread_base spread_new verdict")
	code := 0
	for _, wn := range a.workloadNames() {
		for _, spec := range endToEnd {
			va, vb := a.values(wn, spec.Name), b.values(wn, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%s %s: missing from one file\n", wn, spec.Name)
				code = 1
				continue
			}
			verdict, change := judge(spec, va, vb)
			if why, ok := informational[[2]string{wn, spec.Name}]; ok {
				verdict = "info  # " + why
			}
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%s %s %s %s %+.1f%% %.0f%% %.1f%% %.1f%% %s\n", wn, spec.Name,
				fmtValue(median(va)), fmtValue(median(vb)), 100*change, 100*spec.Bound,
				100*spread(va), 100*spread(vb), verdict)
		}
	}
	return code
}

// minRuns is the fewest runs whose quartiles say anything about spread.
const minRuns = 3

// judge returns the verdict for one metric, given its value in each run of
// either side, and the signed change of b's median against a's, positive
// meaning worse.
func judge(spec metricSpec, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	change := (mb - ma) / math.Abs(ma)
	if spec.Better == "higher" {
		change = -change
	}
	switch {
	case len(a) < minRuns || len(b) < minRuns, spread(a) > spec.Bound, spread(b) > spec.Bound:
		return "unresolved", change
	case change > spec.Bound:
		return "worse", change
	}
	return "ok", change
}
