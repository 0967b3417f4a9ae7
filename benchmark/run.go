package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"clue/internal/feed"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/serve"
)

// runConfig is what one invocation fixes for all its workloads.
type runConfig struct {
	seed     int64
	sliceLen time.Duration // the measured window is sc.slices of these
	measured bool          // run the measured window (tracing off)
	traced   bool          // run the traced pass
	sc       scale
	callers  int    // C = min(nproc, 4) closed-loop readers
	serveBin string // built clue-serve
	outDir   string // scratch and trace files
}

// metricValue is one reported number.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n_samples"`
	Note  string  `json:"note,omitempty"`
}

// workloadResult is everything one workload produced.
type workloadResult struct {
	Name        string        `json:"name"`
	Seed        int64         `json:"seed"`
	Why         string        `json:"why"`
	InputDigest string        `json:"input_digest"`
	Routes      int           `json:"routes"`
	Compressed  int           `json:"compressed_routes"`
	Readers     int           `json:"readers"`
	Attempted   int64         `json:"attempted"`
	Failed      int64         `json:"failed"`
	Correct     bool          `json:"correct"`
	Error       string        `json:"error,omitempty"`
	EndToEnd    []metricValue `json:"end_to_end,omitempty"`
	PerLayer    []metricValue `json:"per_layer,omitempty"`
	TraceFile   string        `json:"trace_file,omitempty"`
	// ChildPids lists every clue-serve this workload exec'd; all of them
	// were reaped, and checked gone, before the result was returned.
	ChildPids []int `json:"child_pids,omitempty"`
}

func (r *workloadResult) fail(err error) {
	r.Failed++
	r.Correct = false
	if r.Error == "" {
		r.Error = err.Error()
	}
}

func (r *workloadResult) notePid(t topology) {
	if pid := t.childPid(); pid != 0 {
		r.ChildPids = append(r.ChildPids, pid)
	}
}

// started is a topology that has answered its first verified request.
type started struct {
	topo   topology
	spec   *loadSpec
	setupS float64 // inputs ready → first correct answer
}

// start stands the workload's topology up and times it to the first
// correct answer, which is what set-up means to a user. Building the
// child binary and writing the FIB file happen before the clock starts:
// they are inputs.
func start(ctx context.Context, w *workloadSpec, in *inputs, cfg *runConfig, fibPath string) (*started, error) {
	// Every set-up starts from a collected heap handed back to the OS, as
	// a fresh process would: otherwise the first set-up of a run pays for
	// page faults the later ones do not, and setup_s has two modes.
	debug.FreeOSMemory()
	t0 := time.Now()
	var topo topology
	var err error
	switch w.topo {
	case topoHTTP:
		topo, err = startHTTPFromFile(ctx, cfg.serveBin, fibPath, cfg.callers)
	case topoInproc:
		topo, err = startInproc(in.routes)
	case topoFeed:
		topo, err = startFeed(ctx, in.routes)
	}
	if err != nil {
		return nil, err
	}
	spec := newLoadSpec(w, in, topo, cfg.callers)
	if spec.readers[0](0) == 0 {
		err := spec.stats[0].err
		topo.close()
		return nil, fmt.Errorf("first answer after set-up: %w", err)
	}
	return &started{topo: topo, spec: spec, setupS: time.Since(t0).Seconds()}, nil
}

// newLoadSpec wires the workload's readers to the topology.
func newLoadSpec(w *workloadSpec, in *inputs, topo topology, callers int) *loadSpec {
	spec := &loadSpec{
		in: in, topo: topo, timeEvery: 1, spanName: "load." + w.Name,
		batchSize: w.upBatch, batchRate: w.upRate, depth: w.upDepth, after: w.upAfter,
	}
	n := callers
	if w.oneReader {
		n = 1
	}
	var bodies [][]byte
	if w.read == readHTTPBatch {
		bodies = httpBodies(in)
	}
	calls := len(in.pool) / in.batch
	for c := 0; c < n; c++ {
		st := &readStats{}
		start := c * calls / n // callers start spread over the pool
		var rd readFn
		switch w.read {
		case readHTTPBatch:
			rd = httpBatchReader(topo.(*httpTopo).hc, in, bodies, start, st)
		case readSingle:
			rd = singleReader(runtimeOf(topo), in, start, st)
			spec.timeEvery = 8
		case readBatch:
			rd = batchReader(runtimeOf(topo), in, start, st)
		}
		spec.readers = append(spec.readers, rd)
		spec.stats = append(spec.stats, st)
	}
	return spec
}

// runtimeOf returns the in-process serving runtime of a topology.
func runtimeOf(t topology) *serve.Runtime {
	switch t := t.(type) {
	case *inprocTopo:
		return t.rt
	case *feedTopo:
		return t.rt
	}
	return nil
}

func writeFIB(dir string, routes []ip.Route) (string, error) {
	path := filepath.Join(dir, "fib.rib")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := ribio.Write(f, routes); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// runWorkload runs one workload: inputs, set-up, warm-up plus measured
// window and/or traced pass, the quiesced end check, tear-down, and the
// repeated set-ups behind setup_s.
func runWorkload(ctx context.Context, w *workloadSpec, cfg *runConfig) *workloadResult {
	res := &workloadResult{Name: w.Name, Seed: cfg.seed, Why: w.Why, Correct: true}
	resetPeakRSS()
	nRoutes, poolSize := cfg.sc.routes, cfg.sc.zipfPool
	if w.big {
		nRoutes = cfg.sc.bigRoutes
	}
	if w.cold {
		poolSize = cfg.sc.coldPool
	}
	in, err := makeInputs(cfg.seed, nRoutes, poolSize, w.batch, w.cold)
	if err != nil {
		res.fail(err)
		return res
	}
	runWith(ctx, w, cfg, in, res)
	return res
}

// runWith is runWorkload on inputs already made.
func runWith(ctx context.Context, w *workloadSpec, cfg *runConfig, in *inputs, res *workloadResult) {
	res.InputDigest, res.Routes = in.digest, len(in.routes)
	var err error

	var fibPath string
	if w.topo == topoHTTP {
		if fibPath, err = writeFIB(cfg.outDir, in.routes); err != nil {
			res.fail(err)
			return
		}
	}
	st, err := start(ctx, w, in, cfg, fibPath)
	if err != nil {
		res.fail(err)
		return
	}
	res.notePid(st.topo)
	// Whatever happens below, the topology (and with it the child) is
	// torn down before this function returns.
	closed := false
	closeTopo := func() {
		if closed {
			return
		}
		closed = true
		if err := st.topo.close(); err != nil {
			res.fail(err)
		}
	}
	defer closeTopo()
	res.Readers = len(st.spec.readers)
	setups := []float64{st.setupS}

	var lr *loadResult
	if cfg.measured {
		lr = runLoad(ctx, st.spec, cfg.sc.warm, cfg.sliceLen, cfg.sc.slices)
		tally(res, lr)
	}
	rss, err := peakRSSMB(st.topo.servingPid())
	if err != nil {
		res.fail(err)
	}
	if cfg.traced && res.Correct {
		tracePass(ctx, w, st, cfg, res)
	}
	if sst, err := st.topo.stats(); err == nil {
		res.Compressed = sst.Routes
	}
	if ctx.Err() == nil {
		if err := endCheck(st.topo, in); err != nil {
			res.fail(err)
		}
	}
	closeTopo()

	// setup_s is the median of several set-ups: the ones after the first
	// run in a warm process, so one cold start does not decide the number.
	for i := 1; i < cfg.sc.setups && cfg.measured && res.Correct && ctx.Err() == nil; i++ {
		again, err := start(ctx, w, in, cfg, fibPath)
		if err != nil {
			res.fail(err)
			break
		}
		setups = append(setups, again.setupS)
		res.notePid(again.topo)
		if err := again.topo.close(); err != nil {
			res.fail(err)
		}
	}
	if cfg.measured {
		res.EndToEnd = endToEndMetrics(lr, setups, rss)
	}
	if err := ctx.Err(); err != nil && res.Error == "" {
		res.fail(err)
	}
	return
}

// tally folds a load run's operation counts into the workload's result:
// an operation is one reader call or one update batch.
func tally(res *workloadResult, lr *loadResult) {
	res.Attempted += lr.reads.calls + lr.batches
	res.Failed += lr.reads.failed + lr.failedUps
	if lr.err != nil {
		res.Correct = false
		if res.Error == "" {
			res.Error = lr.err.Error()
		}
	}
}

// endCheckAddrs is how many pool addresses the end check looks up.
const endCheckAddrs = 1 << 14

// endCheck runs once the update stream has quiesced: the serving side's
// canonical table hash must equal the hash of the oracle's own ONRTC
// compression, a sample of the pool must resolve to the oracle's answers
// through the snapshot path, and a feed must have stayed on one
// connection and one snapshot with no hash mismatch.
func endCheck(topo topology, in *inputs) error {
	sst, err := topo.stats()
	if err != nil {
		return fmt.Errorf("end check: %w", err)
	}
	if sst.UpdateErrors != 0 {
		return fmt.Errorf("end check: serving runtime reports %d update errors", sst.UpdateErrors)
	}
	want := feed.CanonicalHash(onrtc.Compress(in.oracle.ref).Routes())
	if sst.TableHash != want {
		return fmt.Errorf("end check: serving table hash %016x, oracle's compression hashes to %016x", sst.TableHash, want)
	}
	n := min(endCheckAddrs, len(in.pool))
	for i := 0; i < n; i++ {
		got, err := topo.lookup(in.pool[i])
		if err != nil {
			return fmt.Errorf("end check: %w", err)
		}
		if exp, _ := in.oracle.ref.Lookup(in.pool[i], nil); got != exp {
			return fmt.Errorf("end check: %s resolves to hop %d, oracle says %d", in.pool[i], got, exp)
		}
		if _, ok := topo.(*httpTopo); ok && i >= 256 {
			break // a GET per address: a few hundred prove the path
		}
	}
	if ft, ok := topo.(*feedTopo); ok {
		fs := ft.fl.Stats()
		if fs.HashMismatches != 0 || fs.SnapshotLoads != 1 || fs.Reconnects != 0 {
			return fmt.Errorf("end check: feed not clean: %d hash mismatches, %d snapshot loads, %d reconnects",
				fs.HashMismatches, fs.SnapshotLoads, fs.Reconnects)
		}
		if cs := ft.coll.Stats(); cs.Records != fs.Records {
			return fmt.Errorf("end check: collector sent %d records, follower applied %d", cs.Records, fs.Records)
		}
	}
	return nil
}

// endToEndMetrics condenses a measured window into the end-to-end
// metrics, in the order spec.go declares them.
func endToEndMetrics(lr *loadResult, setups []float64, rssMB float64) []metricValue {
	sliceSec := lr.w.sliceLen.Seconds()
	unit := func(name string) string {
		for _, m := range endToEnd {
			if m.Name == name {
				return m.Unit
			}
		}
		panic("undeclared end-to-end metric " + name)
	}
	mv := func(name string, s sliceStat) metricValue {
		return metricValue{Name: name, Value: s.Value, Unit: unit(name), N: s.N, Note: s.Note}
	}
	addrs, visRecs, visNs := lr.addrs[:lr.nRead], lr.visRecs[lr.upFrom:], lr.visNs[lr.upFrom:]
	p50, p90 := slicedPercentiles(lr.callNs[:lr.nRead], lookupTailQ, 1e3)
	var cpu sliceStat
	for k, c := range lr.cpu[:lr.nRead] {
		if addrs[k] > 0 {
			cpu.Slices = append(cpu.Slices, c/(addrs[k]/1e6))
			cpu.N++
		}
	}
	cpu.Value = median(cpu.Slices)

	// Route-visible latency has one sample per update batch: enough per
	// slice for a median, too few for a tail, so the tail is taken over
	// the whole window.
	visP50, _ := slicedPercentiles(visNs, visibleTailQ, 1e6)
	var vis []float64
	for _, s := range visNs {
		vis = append(vis, s...)
	}
	visTail := sliceStat{Value: quantile(vis, visibleTailQ) / 1e6, N: len(vis), Note: tailNote(len(vis), visibleTailQ)}

	return []metricValue{
		mv("setup_s", sliceStat{Value: median(setups), N: len(setups)}),
		mv("lookups_per_s", slicedRate(addrs, sliceSec)),
		mv("lookup_p50_us", p50),
		mv("lookup_p90_us", p90),
		mv("cpu_s_per_mlookup", cpu),
		mv("updates_per_s", slicedRate(visRecs, sliceSec)),
		mv("route_visible_p50_ms", visP50),
		mv("route_visible_p95_ms", visTail),
		{Name: "peak_rss_mb", Value: rssMB, Unit: unit("peak_rss_mb"), N: 1},
	}
}

// lookupTailQ is the reader-call tail percentile. On dispatch_single the
// calls beyond p90 are the ones that found their worker parked (~80 us at
// p99.9 against 0.7 us at p50), and what share of calls that is swings
// with the scheduler: between identical runs p99 moved ±19 % and p95 ±9 %,
// with jumps of a third, while p90 stayed within ±5 % on every workload.
const lookupTailQ = 0.90

// visibleTailQ is the route-visible tail percentile. The stream's share of
// a 10 s window holds 240 batches on the slowest workload (the paced feed;
// serial updates of the 1 M-route table make about 400); p95 is the
// highest percentile all of them support with ten samples beyond it.
const visibleTailQ = 0.95
