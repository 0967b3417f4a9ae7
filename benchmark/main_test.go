package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"clue/internal/feed"
	"clue/internal/ip"
	"clue/internal/ribio"
)

// --- helpers -------------------------------------------------------------

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianQuantileSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	vs := []float64{10, 20, 30, 40, 50}
	if got := quantile(vs, 0.99); !near(got, 49.6) {
		t.Errorf("quantile(0.99) = %v, want 49.6", got)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,100], n=4) == [2.75, 5.5, 8.25]
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v (Python's exclusive quartiles over the median)", got, want)
	}
	in := []float64{3, 1, 2}
	quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestTailNote(t *testing.T) {
	if note := tailNote(1000, 0.99); note != "" {
		t.Errorf("p99 of 1000 samples has 10 beyond it, got note %q", note)
	}
	if note := tailNote(999, 0.99); note == "" {
		t.Error("p99 of 999 samples has fewer than 10 beyond it and must say so")
	}
	if note := tailNote(200, 0.95); note != "" {
		t.Errorf("p95 of 200 samples has 10 beyond it, got note %q", note)
	}
}

func TestSliceMedianShrugsOffOneStall(t *testing.T) {
	// Nine steady slices and one in which the machine stalled.
	counts := []float64{1000, 1010, 990, 1005, 100, 995, 1000, 1002, 998, 1001}
	r := slicedRate(counts, 2)
	if r.Value < 495 || r.Value > 505 {
		t.Errorf("rate = %v per second, want about 500: the stalled slice must not move the median", r.Value)
	}
	if len(r.Slices) != 10 || r.N != 9101 {
		t.Errorf("slices %d, n %d", len(r.Slices), r.N)
	}

	lat := make([][]float64, 3)
	for k := range lat {
		for i := 1; i <= 1000; i++ {
			lat[k] = append(lat[k], float64(i)*1000) // 1..1000 µs in ns
		}
	}
	lat[1] = append(lat[1], 1e9, 1e9, 1e9) // a stall in slice 1
	p50, p99 := slicedPercentiles(lat, 0.99, 1e3)
	if !near(p50.Value, 500.5) {
		t.Errorf("p50 = %v us, want 500.5", p50.Value)
	}
	if p99.Value < 990 || p99.Value > 991 || p99.Note != "" {
		t.Errorf("p99 = %v us (note %q), want about 990.01 and no note", p99.Value, p99.Note)
	}
	_, thin := slicedPercentiles([][]float64{{1, 2, 3}}, 0.99, 1)
	if thin.Note == "" {
		t.Error("a 3-sample slice cannot support p99 and the note must say so")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Span: 10, Parent: 0, Name: "root", Start: 0, End: 1000},
		{ID: 1, Span: 11, Parent: 10, Name: "mid", Start: 1000, End: 1400},
		{ID: 1, Span: 12, Parent: 11, Name: "leaf", Start: 1400, End: 1500},
		{ID: 1, Span: 13, Parent: 10, Name: "side", Start: 1500, End: 1700},
		{ID: 2, Span: 20, Parent: 0, Name: "root", Start: 2000, End: 2100},
		{ID: 2, Span: 21, Parent: 20, Name: "mid", Start: 2100, End: 2300}, // replay noise: child longer than parent
	}
	self := selfTimes(spans)
	if got := self["root"]; len(got) != 2 || got[0] != 400 || got[1] != 0 {
		t.Errorf("root self = %v, want [400 0]", got)
	}
	if got := self["mid"]; got[0] != 300 || got[1] != 200 {
		t.Errorf("mid self = %v, want [300 200]", got)
	}
	if got := self["leaf"][0] + self["side"][0]; got != 300 {
		t.Errorf("leaf+side self = %v, want 300", got)
	}
	// The selves of one unclamped tree add up to its root.
	if sum := self["root"][0] + self["mid"][0] + self["leaf"][0] + self["side"][0]; sum != 1000 {
		t.Errorf("selves of input 1 sum to %v, want the root's 1000", sum)
	}
}

func TestFrameTapFollowsFrameBoundaries(t *testing.T) {
	var stream bytes.Buffer
	var frames []feed.Frame
	for i := 0; i < 6; i++ {
		fr := feed.Frame{Type: feed.FrameAck, Seq: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, i*7)}
		frames = append(frames, fr)
		if err := feed.WriteFrame(&stream, fr); err != nil {
			t.Fatal(err)
		}
	}
	raw := stream.Bytes()
	tap := &frameTap{}
	tap.feed(raw[:5]) // the first frame is under way before capture is asked for
	tap.capture(3)
	for rest := raw[5:]; len(rest) > 0; { // the rest arrives in 3-byte reads
		n := min(3, len(rest))
		tap.feed(rest[:n])
		rest = rest[n:]
	}
	got, total := tap.take()
	if total != int64(len(raw)) {
		t.Errorf("counted %d bytes, want %d", total, len(raw))
	}
	if len(got) != 3 {
		t.Fatalf("kept %d frames, want 3", len(got))
	}
	for i, b := range got {
		fr, err := feed.ReadFrame(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("kept frame %d does not parse: %v", i, err)
		}
		if want := frames[i+1]; fr.Seq != want.Seq || !bytes.Equal(fr.Payload, want.Payload) {
			t.Errorf("kept frame %d is seq %d, want seq %d (capture starts at the next boundary)", i, fr.Seq, want.Seq)
		}
	}
}

func TestOracleExcusesOnlyTouchedAddresses(t *testing.T) {
	routes := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("10.1.0.0/16"), NextHop: 2},
		{Prefix: ip.MustParsePrefix("192.0.2.0/24"), NextHop: 3},
	}
	o := newOracle(routes)
	pr := o.apply([]ribio.UpdateRecord{{Prefix: ip.MustParsePrefix("10.1.2.0/24"), NextHop: 9}})
	if !pr.ok || pr.want != 9 || !ip.MustParsePrefix("10.1.2.0/24").Contains(pr.addr) {
		t.Fatalf("probe = %+v, want an address in 10.1.2.0/24 expecting hop 9", pr)
	}
	if !o.excused(ip.MustParseAddr("10.1.2.3"), 16) {
		t.Error("10.1.2.3 (base match /16) lies under the announced /24 and must be excused")
	}
	if o.excused(ip.MustParseAddr("10.1.3.3"), 16) {
		t.Error("10.1.3.3 lies under no touched prefix")
	}
	// A touched prefix shorter than the base match cannot change the answer.
	o.apply([]ribio.UpdateRecord{{Prefix: ip.MustParsePrefix("192.0.0.0/16"), NextHop: 7}})
	if o.excused(ip.MustParseAddr("192.0.2.1"), 24) {
		t.Error("192.0.2.1 still matches its /24; a new covering /16 does not excuse a different answer")
	}
	if got := o.current(ip.MustParseAddr("192.0.3.1")); got != 7 {
		t.Errorf("reference answer under the new /16 = %d, want 7", got)
	}
	// A batch that changes nothing observable yields no probe.
	if pr := o.apply([]ribio.UpdateRecord{{Prefix: ip.MustParsePrefix("10.1.2.0/24"), NextHop: 9}}); pr.ok {
		t.Errorf("re-announcing the same hop changed no answer, got probe %+v", pr)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v * 1.02} }
	wild := []float64{10, 400, 30, 250, 90}
	rate := metricSpec{Name: "lookups_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	lat := metricSpec{Name: "lookup_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	cases := []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{rate, steady(100), steady(95), "ok"},
		{rate, steady(100), steady(85), "worse"},
		{rate, steady(100), steady(150), "ok"},
		{lat, steady(100), steady(115), "worse"},
		{lat, steady(100), steady(60), "ok"},
		{lat, steady(100), wild, "unresolved"},
		{lat, []float64{100}, []float64{105}, "unresolved"}, // one run a side: no spread, so no verdict
		{lat, steady(100), []float64{150, 151}, "unresolved"},
	}
	for i, c := range cases {
		if got, _ := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s %v → %v judged %q, want %q", i, c.spec.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	set := func(lookups float64) *runFile {
		rf := &runFile{}
		for seed, f := range []float64{0.98, 1, 1.03} {
			for i := range workloads {
				res := &workloadResult{Name: workloads[i].Name, Seed: int64(seed)}
				for _, m := range endToEnd {
					v := 100 * f
					if m.Name == "lookups_per_s" && workloads[i].Name == "http_batch" {
						v = lookups * f
					}
					if _, info := informational[[2]string{res.Name, m.Name}]; info {
						v = lookups * f // whatever these rows do, they get no verdict
					}
					res.EndToEnd = append(res.EndToEnd, metricValue{Name: m.Name, Value: v, Unit: m.Unit})
				}
				rf.Workloads = append(rf.Workloads, res)
			}
		}
		return rf
	}
	var out bytes.Buffer
	if code := compareRuns(&out, set(100), set(100)); code != 0 {
		t.Errorf("a set compared with itself exits %d:\n%s", code, out.String())
	}
	rows := len(workloads) * len(endToEnd)
	if ok, info := strings.Count(out.String(), " ok\n"), strings.Count(out.String(), " info  # "); ok != rows-len(informational) || info != len(informational) {
		t.Errorf("%d ok rows and %d info rows, want %d and %d:\n%s", ok, info, rows-len(informational), len(informational), out.String())
	}
	out.Reset()
	if code := compareRuns(&out, set(100), set(50)); code != 1 {
		t.Errorf("half the lookup rate on http_batch exits %d, want 1:\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), " worse\n"); n != 1 || !strings.Contains(out.String(), "http_batch lookups_per_s 100.0 50.000 +50.0%") {
		t.Errorf("want exactly one worse row, http_batch lookups_per_s:\n%s", out.String())
	}
}

// --- BENCHMARK.json and the code agree ------------------------------------

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != benchmarkJSON()+"\n" {
		t.Error("BENCHMARK.json is not what spec.go declares; regenerate it with `clue-e2e -benchmark-json > BENCHMARK.json`")
	}
	// The driver's limits on what spec.go may declare.
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q [%s]: name or unit malformed, or name used twice", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name malformed or used twice, or its why is not one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	for row := range informational {
		if findWorkload(row[0]) == nil || !seen[row[1]] {
			t.Errorf("informational row %v names no declared workload and metric", row)
		}
	}
}

// --- smoke: every workload, both passes, tiny tables ----------------------

var smokeServeBin string

// smokeScale is the tests' scale: tiny tables, windows of a second.
var smokeScale = scale{
	routes: 2_000, bigRoutes: 2_000,
	zipfPool: 1 << 12, coldPool: 1 << 15,
	warm: 50 * time.Millisecond, slices: 5, setups: 1,
	probeMin: 5 * time.Millisecond, replays: 8, writeOps: 64,
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "clue-e2e-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	root, err := findRepoRoot()
	if err == nil {
		smokeServeBin, err = buildServe(context.Background(), root, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig(t *testing.T) *runConfig {
	return &runConfig{
		seed: 7, sliceLen: 200 * time.Millisecond, measured: true, traced: true,
		sc: smokeScale, callers: 2, serveBin: smokeServeBin, outDir: t.TempDir(),
	}
}

func assertGone(t *testing.T, pids []int) {
	t.Helper()
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child pid %d still exists after the run (kill(pid, 0) = %v)", pid, err)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rf := &runFile{Benchmark: "clue-e2e", Seed: 7, Runs: 1}
	for i := range workloads {
		w := &workloads[i]
		cfg := smokeConfig(t)
		res := runWorkload(ctx, w, cfg)
		rf.Workloads = append(rf.Workloads, res)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", w.Name, res.Correct, res.Failed, res.Attempted, res.Error)
		}
		if len(res.ChildPids) == 0 {
			t.Errorf("%s: no child was exec'd; every traced pass probes the HTTP surface", w.Name)
		}
		assertGone(t, res.ChildPids)

		checkMetrics := func(kind string, got []metricValue, want []metricSpec, nonZero bool) {
			if len(got) != len(want) {
				t.Fatalf("%s: %d %s metrics, want %d", w.Name, len(got), kind, len(want))
			}
			for j, m := range want {
				g := got[j]
				if g.Name != m.Name || g.Unit != m.Unit || !nameRE.MatchString(g.Name) {
					t.Errorf("%s: %s metric %d is %q [%s], want %q [%s]", w.Name, kind, j, g.Name, g.Unit, m.Name, m.Unit)
				}
				if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) || g.Value < 0 || (nonZero && g.Value == 0) {
					t.Errorf("%s: %s = %v", w.Name, g.Name, g.Value)
				}
			}
		}
		checkMetrics("end-to-end", res.EndToEnd, endToEnd, true)
		checkMetrics("per-layer", res.PerLayer, perLayer, false)

		// The load shape must never fill a queue or break a feed.
		for _, m := range res.PerLayer {
			switch m.Name {
			case "serve.dispatch.divert_ratio", "feed.follower.reconnects", "feed.follower.hash_mismatches", "loadgen.failed_ops_ratio":
				if m.Value != 0 {
					t.Errorf("%s: %s = %v, want 0", w.Name, m.Name, m.Value)
				}
			case "feed.follower.snapshot_loads", "feed.delivered_ratio":
				if m.Value != 1 {
					t.Errorf("%s: %s = %v, want 1", w.Name, m.Name, m.Value)
				}
			}
		}
		checkTraceFile(t, res.TraceFile)
	}

	// The result file round-trips.
	b, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	var back runFile
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(&back)
	if !bytes.Equal(b, b2) {
		t.Error("result file does not survive a JSON round trip")
	}
	// One run a side has no spread: every row that gets a verdict is unresolved.
	var out bytes.Buffer
	if code := compareRuns(&out, rf, &back); code != 0 {
		t.Errorf("a run compared with itself is worse:\n%s", out.String())
	}
	if n, want := strings.Count(out.String(), " unresolved\n"), len(workloads)*len(endToEnd)-len(informational); n != want {
		t.Errorf("compare printed %d unresolved rows, want %d:\n%s", n, want, out.String())
	}
	// The one-line summaries carry exactly the declared metrics.
	for _, perLayerOnly := range []bool{false, true} {
		var line struct {
			Correct   bool                       `json:"correct"`
			Attempted int64                      `json:"attempted"`
			Failed    int64                      `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		one := &runFile{Workloads: rf.Workloads[:1]}
		if err := json.Unmarshal([]byte(contractLine(one, perLayerOnly)), &line); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if perLayerOnly {
			want = len(perLayer)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != want {
			t.Errorf("summary line (per-layer %v): correct=%v attempted=%d failed=%d, %d metrics, want %d",
				perLayerOnly, line.Correct, line.Attempted, line.Failed, len(line.Metrics), want)
		}
	}
}

// checkTraceFile verifies the trace: every span is well-formed, every
// child names a parent that exists and shares its input id, and every
// layer of both stacks is present.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	bySpan := map[uint64]span{}
	names := map[string]int{}
	for _, s := range tf.Spans {
		if s.End < s.Start || s.Span == 0 || s.ID == 0 || s.Name == "" {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if _, dup := bySpan[s.Span]; dup {
			t.Fatalf("%s: span number %d used twice", path, s.Span)
		}
		bySpan[s.Span] = s
		names[s.Name]++
	}
	parentOf := map[string]string{
		"ip.parse": "http.roundtrip", "ip.format": "http.roundtrip", "serve.dispatch_batch": "http.roundtrip",
		"serve.lookup_batch": "serve.dispatch_batch", "snapshot.lookup": "serve.lookup_batch",
		"serve.writer": "feed.visible", "core.system": "serve.writer", "onrtc.updater": "core.system",
	}
	for _, s := range tf.Spans {
		want, isChild := parentOf[s.Name]
		if !isChild {
			if s.Parent != 0 {
				t.Errorf("%s: %s span has a parent", path, s.Name)
			}
			continue
		}
		p, ok := bySpan[s.Parent]
		if !ok || p.ID != s.ID || p.Name != want {
			t.Fatalf("%s: %s span %d: parent %d is %q of input %d, want a %q span of input %d", path, s.Name, s.Span, s.Parent, p.Name, p.ID, want, s.ID)
		}
	}
	for name := range parentOf {
		if names[name] == 0 {
			t.Errorf("%s: no %s spans", path, name)
		}
	}
	for _, root := range []string{"http.roundtrip", "feed.visible", "http.single_get", "update.visible"} {
		if names[root] == 0 {
			t.Errorf("%s: no %s spans", path, root)
		}
	}
}

// A wrong answer must fail the run — and still leave no child behind.
func TestFailedCheckStillReapsChild(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := findWorkload("http_batch")
	cfg := smokeConfig(t)
	cfg.traced = false
	in, err := makeInputs(cfg.seed, cfg.sc.routes, cfg.sc.zipfPool, w.batch, false)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the oracle's expectations for everything after the first
	// request, so set-up passes and the measured window does not.
	for i := w.batch; i < len(in.exp); i++ {
		in.exp[i] += 1000
	}
	res := &workloadResult{Name: w.Name, Correct: true}
	runWith(ctx, w, cfg, in, res)
	if res.Correct || res.Failed == 0 || !strings.Contains(res.Error, "oracle says") {
		t.Errorf("poisoned run: correct=%v failed=%d error=%q; want a failed check", res.Correct, res.Failed, res.Error)
	}
	if len(res.ChildPids) == 0 {
		t.Fatal("no child pid recorded")
	}
	assertGone(t, res.ChildPids)
}

// A cancelled run (signal, watchdog) must also reap its child.
func TestCancelledRunReapsChild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := findWorkload("http_batch")
	cfg := smokeConfig(t)
	cfg.sliceLen = 10 * time.Second // far longer than the test waits
	time.AfterFunc(300*time.Millisecond, cancel)
	start := time.Now()
	res := runWorkload(ctx, w, cfg)
	if res.Correct || time.Since(start) > 20*time.Second {
		t.Errorf("cancelled run: correct=%v after %s", res.Correct, time.Since(start))
	}
	if len(res.ChildPids) == 0 {
		t.Fatal("no child pid recorded")
	}
	assertGone(t, res.ChildPids)
}
