// Command clue-e2e is the repo's end-to-end benchmark: it drives the
// system the way its three users do — an HTTP client of clue-serve, an
// embedder of serve.Runtime, a collector feeding a replica — checks every
// answer against its own oracle, and prints every metric by name with its
// unit. README.md in this directory says what is measured and why.
//
// Usage:
//
//	clue-e2e [-workload NAME|all] [-seed N] [-runs N] [-seconds S]
//	         [-trace 0|1|both] [-out run.json] [-max-wall 6m]
//	clue-e2e -compare a.json b.json
//	clue-e2e -benchmark-json > ../BENCHMARK.json
//
// With one workload named, the last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics for -trace 0, the per-layer metrics for -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runFile is what -out writes and -compare reads: one set of runs, a
// workloadResult per (workload, seed).
type runFile struct {
	Benchmark string            `json:"benchmark"`
	Seed      int64             `json:"seed"`
	Runs      int               `json:"runs"`
	Seconds   float64           `json:"seconds"`
	Host      hostInfo          `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Callers    int    `json:"callers"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("clue-e2e", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	runs := fs.Int("runs", 1, "run each workload this many times, with seeds seed, seed+1, …; -compare needs at least 3 a side to tell a change from noise (the traced pass runs with the first seed only)")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured window (and of the traced pass's load phases) in seconds")
	traceMode := fs.String("trace", "both", "0: measured window only; 1: traced pass only; both")
	out := fs.String("out", "", "write the full result (every metric, slices, host) to this JSON file")
	maxWall := fs.Duration("max-wall", 6*time.Minute, "watchdog: abort the run, child included, after this long")
	serveBin := fs.String("serve-bin", "", "prebuilt clue-serve to exec (default: go build it into the scratch directory)")
	outDir := fs.String("scratch", "", "directory for the FIB file, the child binary and trace files (default: benchmark/out under the repo root)")
	compare := fs.Bool("compare", false, "compare two result files: clue-e2e -compare a.json b.json")
	printSpec := fs.Bool("benchmark-json", false, "print BENCHMARK.json as spec.go declares it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printSpec {
		fmt.Println(benchmarkJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "clue-e2e: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	var sel []*workloadSpec
	if *workload == "all" {
		for i := range workloads {
			sel = append(sel, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		sel = append(sel, w)
	} else {
		fmt.Fprintf(os.Stderr, "clue-e2e: unknown workload %q\n", *workload)
		return 2
	}
	cfg := &runConfig{sc: fullScale, callers: min(runtime.NumCPU(), 4), serveBin: *serveBin, outDir: *outDir}
	var traced bool
	switch *traceMode {
	case "0":
		cfg.measured = true
	case "1":
		traced = true
	case "both":
		cfg.measured, traced = true, true
	default:
		fmt.Fprintf(os.Stderr, "clue-e2e: -trace must be 0, 1 or both, not %q\n", *traceMode)
		return 2
	}
	if *seconds <= 0 || *runs < 1 || (*runs > 1 && !cfg.measured) {
		fmt.Fprintln(os.Stderr, "clue-e2e: -seconds and -runs must be positive, and -runs repeats the measured window, which -trace 1 leaves out")
		return 2
	}
	cfg.sliceLen = time.Duration(*seconds * float64(time.Second) / float64(cfg.sc.slices))

	// Every exit path below — success, failed check, signal, watchdog —
	// runs through runWorkload's deferred tear-down, which reaps the child
	// and verifies it is gone. The hard timer is the backstop for a hang
	// that ignores the context: the child is in its own process group with
	// Pdeathsig set, so exiting here still takes it down.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ctx, cancelWall := context.WithTimeout(ctx, *maxWall)
	defer cancelWall()
	hard := time.AfterFunc(*maxWall+15*time.Second, func() {
		fmt.Fprintln(os.Stderr, "clue-e2e: watchdog: run did not stop after -max-wall; exiting hard")
		os.Exit(3)
	})
	defer hard.Stop()

	if err := prepare(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "clue-e2e:", err)
		return 1
	}

	rf := &runFile{
		Benchmark: "clue-e2e", Seed: *seed, Runs: *runs, Seconds: *seconds,
		Host: hostInfo{
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Callers: cfg.callers,
			Go: runtime.Version(), Kernel: kernelRelease(),
			Network: "loopback only: harness, child and feed peers share this host",
		},
	}
	fmt.Printf("# clue-e2e seed=%d runs=%d seconds=%g nproc=%d callers=%d %s linux %s — %s\n",
		*seed, *runs, *seconds, rf.Host.NProc, cfg.callers, rf.Host.Go, rf.Host.Kernel, rf.Host.Network)
	fmt.Println("# workload metric value unit n_samples")
	ok := true
	for r := 0; r < *runs; r++ {
		cfg.seed, cfg.traced = *seed+int64(r), traced && r == 0
		for _, w := range sel {
			if ctx.Err() != nil {
				ok = false
				break
			}
			res := runWorkload(ctx, w, cfg)
			rf.Workloads = append(rf.Workloads, res)
			printRows(res)
			if !res.Correct || res.Failed != 0 {
				ok = false
				fmt.Fprintf(os.Stderr, "clue-e2e: %s seed %d: %d of %d operations failed: %s\n", w.Name, res.Seed, res.Failed, res.Attempted, res.Error)
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintln(os.Stderr, "clue-e2e:", err)
			ok = false
		}
	}
	fmt.Println(contractLine(rf, traced && !cfg.measured))
	if !ok {
		return 1
	}
	return 0
}

// prepare resolves the scratch directory and builds the child binary
// (outside every timed region).
func prepare(ctx context.Context, cfg *runConfig) error {
	var root string
	if cfg.outDir == "" || cfg.serveBin == "" {
		var err error
		if root, err = findRepoRoot(); err != nil {
			return err
		}
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(root, "benchmark", "out")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.serveBin == "" {
		var err error
		if cfg.serveBin, err = buildServe(ctx, root, cfg.outDir); err != nil {
			return err
		}
	}
	return nil
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func printRows(res *workloadResult) {
	for _, group := range [][]metricValue{res.EndToEnd, res.PerLayer} {
		for _, m := range group {
			note := ""
			if m.Note != "" {
				note = "  # " + m.Note
			}
			fmt.Printf("%s %s %s %s %d%s\n", res.Name, m.Name, fmtValue(m.Value), m.Unit, m.N, note)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine is the one-line summary: for a single workload the metric
// names are bare, for several they are prefixed "workload/"; a workload run
// several times reports each metric's median over its runs. With
// perLayerOnly (-trace 1) it carries the per-layer metrics, otherwise the
// end-to-end ones.
func contractLine(rf *runFile, perLayerOnly bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: len(rf.Workloads) > 0, Metrics: map[string]val{}}
	for _, w := range rf.Workloads {
		line.Correct = line.Correct && w.Correct && w.Failed == 0
		line.Attempted += w.Attempted
		line.Failed += w.Failed
	}
	specs := endToEnd
	if perLayerOnly {
		specs = perLayer
	}
	names := rf.workloadNames()
	for _, wn := range names {
		for _, m := range specs {
			vs := rf.values(wn, m.Name)
			if len(vs) == 0 {
				continue
			}
			name := m.Name
			if len(names) > 1 {
				name = wn + "/" + m.Name
			}
			line.Metrics[name] = val{median(vs), m.Unit}
		}
	}
	b, _ := json.Marshal(line)
	return string(b)
}

// workloadNames lists the file's workloads once each, in the order they
// first ran.
func (rf *runFile) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, w := range rf.Workloads {
		if !seen[w.Name] {
			seen[w.Name] = true
			names = append(names, w.Name)
		}
	}
	return names
}

// values returns the metric's value in each of the file's runs of the
// workload that reported it.
func (rf *runFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, w := range rf.Workloads {
		if w.Name != workload {
			continue
		}
		for _, group := range [][]metricValue{w.EndToEnd, w.PerLayer} {
			for _, m := range group {
				if m.Name == metric {
					vs = append(vs, m.Value)
				}
			}
		}
	}
	return vs
}

// runSeconds is the measured window BENCHMARK.json asks the driver for.
const runSeconds = 10

// benchmarkJSON renders the repo-root BENCHMARK.json from spec.go, so the
// file the driver reads and the code that produces the numbers cannot
// drift apart (main_test.go checks the committed file against the same
// tables).
func benchmarkJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type plain struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []wl      `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []plain   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, plain{m.Name, m.Unit, m.Better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return string(b)
}
