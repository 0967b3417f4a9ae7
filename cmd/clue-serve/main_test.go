package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"clue/internal/feed"
	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/serve"
)

// syncBuffer is a mutex-guarded buffer: run() writes from the server
// goroutine while tests poll String().
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServer runs the service on an ephemeral port and returns its base
// URL plus a shutdown func that cancels and waits for a clean exit.
func startServer(t *testing.T, ctx context.Context, cancel context.CancelFunc, extra ...string) (string, *syncBuffer, func() error) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-routes", "4000"}, extra...)
	out := new(syncBuffer)
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, args, out, func(a net.Addr) { addrCh <- a })
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), out, func() error {
			cancel()
			select {
			case err := <-errCh:
				return err
			case <-time.After(10 * time.Second):
				return fmt.Errorf("server did not shut down")
			}
		}
	case err := <-errCh:
		t.Fatalf("server failed to start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}
	return "", nil, nil
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

type lookupResp struct {
	NextHop  uint32 `json:"next_hop"`
	Prefix   string `json:"prefix"`
	Found    bool   `json:"found"`
	Path     string `json:"path"`
	Version  uint64 `json:"snapshot_version"`
	Diverted bool   `json:"diverted"`
}

func TestEndToEndLookupAnnounceWithdraw(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	base, _, shutdown := startServer(t, ctx, cancel)
	defer shutdown()

	// A fresh /24 far from the synthetic allocation is initially covered
	// (or not) by the base table; after the announce it must resolve to
	// the announced hop on both lookup paths.
	var before lookupResp
	getJSON(t, base+"/lookup?addr=203.0.113.9", &before)
	if before.Path != "worker" {
		t.Fatalf("default path = %q", before.Path)
	}

	res := postJSON(t, base+"/announce", `{"prefix":"203.0.113.0/24","next_hop":77}`)
	if res["ttf_total_ns"].(float64) <= 0 {
		t.Fatalf("announce TTF: %v", res)
	}

	var after, afterSnap lookupResp
	getJSON(t, base+"/lookup?addr=203.0.113.9", &after)
	getJSON(t, base+"/lookup?addr=203.0.113.9&path=snapshot", &afterSnap)
	if !after.Found || after.NextHop != 77 || after.Prefix != "203.0.113.0/24" {
		t.Fatalf("lookup after announce: %+v", after)
	}
	if !afterSnap.Found || afterSnap.NextHop != 77 || afterSnap.Path != "snapshot" {
		t.Fatalf("snapshot lookup after announce: %+v", afterSnap)
	}
	if after.Version <= before.Version {
		t.Fatalf("snapshot version did not advance: %d -> %d", before.Version, after.Version)
	}

	postJSON(t, base+"/withdraw", `{"prefix":"203.0.113.0/24"}`)
	var reverted lookupResp
	getJSON(t, base+"/lookup?addr=203.0.113.9", &reverted)
	if reverted.Found != before.Found || reverted.NextHop != before.NextHop {
		t.Fatalf("lookup after withdraw %+v, want pre-announce %+v", reverted, before)
	}

	// /stats and /metrics must reflect the traffic.
	var stats map[string]any
	getJSON(t, base+"/stats", &stats)
	if stats["announces"].(float64) != 1 || stats["withdraws"].(float64) != 1 {
		t.Fatalf("stats: %v", stats)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := new(bytes.Buffer)
	mbody.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metrics := mbody.String()
	if len(metrics) == 0 {
		t.Fatal("/metrics is empty")
	}
	for _, want := range []string{"clue_serve_announces_total 1", "clue_serve_dispatched_total", "clue_serve_snapshot_routes"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", hresp.Status)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

type batchItemResp struct {
	Addr     string `json:"addr"`
	NextHop  uint32 `json:"next_hop"`
	Prefix   string `json:"prefix"`
	Found    bool   `json:"found"`
	Worker   int    `json:"worker"`
	Diverted bool   `json:"diverted"`
}

type batchResp struct {
	Count   int             `json:"count"`
	Path    string          `json:"path"`
	Version uint64          `json:"snapshot_version"`
	Results []batchItemResp `json:"results"`
}

func TestLookupBatchEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	base, _, shutdown := startServer(t, ctx, cancel)
	defer shutdown()

	postBatch := func(body string, want int) *batchResp {
		t.Helper()
		resp, err := http.Post(base+"/lookup/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST /lookup/batch %s: got %s want %d", body, resp.Status, want)
		}
		if want != http.StatusOK {
			return nil
		}
		var out batchResp
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return &out
	}

	// Announce a known route so at least one batch answer is deterministic.
	postJSON(t, base+"/announce", `{"prefix":"203.0.113.0/24","next_hop":77}`)

	body := `{"addrs":["203.0.113.9","203.0.113.200","8.8.8.8"]}`
	worker := postBatch(body, http.StatusOK)
	if worker.Path != "worker" || worker.Count != 3 || len(worker.Results) != 3 {
		t.Fatalf("worker batch: %+v", worker)
	}
	for _, item := range worker.Results[:2] {
		if !item.Found || item.NextHop != 77 || item.Prefix != "203.0.113.0/24" {
			t.Fatalf("worker batch item: %+v", item)
		}
	}

	// The snapshot path must agree item-for-item and report a version.
	snap := postBatch(`{"addrs":["203.0.113.9","203.0.113.200","8.8.8.8"],"path":"snapshot"}`, http.StatusOK)
	if snap.Path != "snapshot" || snap.Version == 0 {
		t.Fatalf("snapshot batch: %+v", snap)
	}
	for i := range snap.Results {
		w, s := worker.Results[i], snap.Results[i]
		if w.Found != s.Found || w.NextHop != s.NextHop || w.Prefix != s.Prefix {
			t.Fatalf("paths disagree at %d: worker %+v, snapshot %+v", i, w, s)
		}
	}

	// Per-item ordering must match the request ordering.
	for i, want := range []string{"203.0.113.9", "203.0.113.200", "8.8.8.8"} {
		if worker.Results[i].Addr != want {
			t.Fatalf("result %d addr = %q, want %q", i, worker.Results[i].Addr, want)
		}
	}

	// Bad inputs: empty array, missing body, bad address, oversized batch.
	postBatch(`{"addrs":[]}`, http.StatusBadRequest)
	postBatch(`not json`, http.StatusBadRequest)
	postBatch(`{"addrs":["not-an-ip"]}`, http.StatusBadRequest)
	huge := `{"addrs":[` + strings.Repeat(`"1.2.3.4",`, maxBatchAddrs) + `"1.2.3.4"]}`
	postBatch(huge, http.StatusBadRequest)

	// Batch traffic must show up in the runtime statistics.
	var stats map[string]any
	getJSON(t, base+"/stats", &stats)
	if stats["dispatch_batches"].(float64) < 1 {
		t.Fatalf("stats missing batch dispatches: %v", stats)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFIBFromRibioFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.rib")
	// Two routes: there is no minimum table size.
	if err := os.WriteFile(path, []byte("# test table\n10.0.0.0/8 1\n10.1.0.0/16 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	base, out, shutdown := startServer(t, ctx, cancel, "-fib", path)
	defer shutdown()

	var res lookupResp
	getJSON(t, base+"/lookup?addr=10.1.2.3", &res)
	if !res.Found || res.NextHop != 2 {
		t.Fatalf("lookup from file-loaded FIB: %+v", res)
	}
	getJSON(t, base+"/lookup?addr=10.200.0.1", &res)
	if !res.Found || res.NextHop != 1 {
		t.Fatalf("lookup under 10/8: %+v", res)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fib "+path) {
		t.Errorf("missing FIB origin in output:\n%s", out.String())
	}
}

func TestRouterProfileAndBadInputs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	base, _, shutdown := startServer(t, ctx, cancel, "-router", "rrc01", "-router-scale", "400")
	defer shutdown()

	// Bad address, bad prefix, missing hop, absent endpoint.
	for _, tc := range []struct {
		method, url, body string
		want              int
	}{
		{"GET", base + "/lookup?addr=notanip", "", http.StatusBadRequest},
		{"GET", base + "/lookup", "", http.StatusBadRequest},
		{"POST", base + "/announce", `{"prefix":"10.0.0.0/33","next_hop":1}`, http.StatusBadRequest},
		{"POST", base + "/announce", `{"prefix":"10.0.0.0/8"}`, http.StatusBadRequest},
		{"POST", base + "/announce", `not json`, http.StatusBadRequest},
		{"GET", base + "/nosuch", "", http.StatusNotFound},
	} {
		var resp *http.Response
		var err error
		if tc.method == "GET" {
			resp, err = http.Get(tc.url)
		} else {
			resp, err = http.Post(tc.url, "application/json", strings.NewReader(tc.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: got %d want %d", tc.method, tc.url, resp.StatusCode, tc.want)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownRouterAndBadFlag(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-router", "nope"}, new(bytes.Buffer), nil); err == nil {
		t.Error("unknown router accepted")
	}
	if err := run(ctx, []string{"-bogus"}, new(bytes.Buffer), nil); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{"-fib", "/nonexistent/table.rib"}, new(bytes.Buffer), nil); err == nil {
		t.Error("missing FIB file accepted")
	}
}

// newTestRuntime builds a runtime directly so tests can drive state the
// HTTP surface must report (worker health, Close) without a listener.
func newTestRuntime(t *testing.T, workers int) *serve.Runtime {
	t.Helper()
	fib, err := fibgen.Generate(fibgen.Config{Seed: 9, Routes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serve.New(fib.Routes(), serve.Config{
		Workers: workers, QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// doReq issues one request and returns the status plus decoded JSON body
// (nil when the body is not JSON).
func doReq(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func adminStates(res map[string]any) []string {
	workers, _ := res["workers"].([]any)
	out := make([]string, len(workers))
	for i, w := range workers {
		m, _ := w.(map[string]any)
		out[i], _ = m["state"].(string)
	}
	return out
}

func TestAdminWorkerEndpoints(t *testing.T) {
	rt := newTestRuntime(t, 3)
	defer rt.Close()
	srv := httptest.NewServer(newHandler(rt, nil))
	defer srv.Close()

	status, res := doReq(t, "GET", srv.URL+"/admin/worker", "")
	if status != http.StatusOK {
		t.Fatalf("GET /admin/worker: %d", status)
	}
	if got := adminStates(res); len(got) != 3 || got[0] != "healthy" || got[1] != "healthy" || got[2] != "healthy" {
		t.Fatalf("initial states: %v", got)
	}

	status, res = doReq(t, "POST", srv.URL+"/admin/worker/fail", `{"worker":1}`)
	if status != http.StatusOK {
		t.Fatalf("fail worker 1: %d %v", status, res)
	}
	if got := adminStates(res); got[1] != "failed" {
		t.Fatalf("states after fail: %v", got)
	}

	// Transition conflicts and unknown ids map to 409 and 404.
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/admin/worker/fail", `{"worker":1}`, http.StatusConflict},    // double-fail
		{"/admin/worker/recover", `{"worker":0}`, http.StatusConflict}, // recover-when-healthy
		{"/admin/worker/fail", `{"worker":99}`, http.StatusNotFound},
		{"/admin/worker/fail", `{"worker":-1}`, http.StatusNotFound},
		{"/admin/worker/recover", `{"worker":99}`, http.StatusNotFound},
		{"/admin/worker/fail", `not json`, http.StatusBadRequest},
		{"/admin/worker/fail", `{}`, http.StatusBadRequest},
	} {
		status, res = doReq(t, "POST", srv.URL+tc.path, tc.body)
		if status != tc.want {
			t.Errorf("POST %s %s: got %d want %d (%v)", tc.path, tc.body, status, tc.want, res)
		}
	}

	// Degraded but forwarding: healthz stays 200 and says so.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody := new(bytes.Buffer)
	hbody.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(hbody.String(), "degraded") {
		t.Fatalf("degraded healthz: %s %q", hresp.Status, hbody.String())
	}

	// Lookups keep working around the failed worker.
	status, res = doReq(t, "GET", srv.URL+"/lookup?addr=10.0.0.1", "")
	if status != http.StatusOK {
		t.Fatalf("lookup while degraded: %d %v", status, res)
	}

	status, res = doReq(t, "POST", srv.URL+"/admin/worker/recover", `{"worker":1}`)
	if status != http.StatusOK {
		t.Fatalf("recover worker 1: %d %v", status, res)
	}
	if got := adminStates(res); got[1] != "healthy" {
		t.Fatalf("states after recover: %v", got)
	}
	hresp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody.Reset()
	hbody.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(hbody.String(), "ok") {
		t.Fatalf("recovered healthz: %s %q", hresp.Status, hbody.String())
	}
}

// TestHealthzNoHealthyWorkers drives every worker down via the panic
// path (operator fail refuses the last healthy worker) and checks that
// healthz goes 503, worker-path lookups fail 503, and the snapshot path
// keeps answering.
func TestHealthzNoHealthyWorkers(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	srv := httptest.NewServer(newHandler(rt, nil))
	defer srv.Close()

	for id := 0; id < 2; id++ {
		if err := rt.PoisonWorker(id); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		states := rt.WorkerStates()
		if states[0] == serve.WorkerFailed && states[1] == serve.WorkerFailed {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("workers did not fail: %v", states)
		case <-time.After(time.Millisecond):
		}
	}

	status, _ := doReq(t, "GET", srv.URL+"/healthz", "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no healthy workers: %d", status)
	}
	status, res := doReq(t, "GET", srv.URL+"/lookup?addr=10.0.0.1", "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("worker lookup with no healthy workers: %d %v", status, res)
	}
	status, res = doReq(t, "GET", srv.URL+"/lookup?addr=10.0.0.1&path=snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("snapshot lookup with no healthy workers: %d %v", status, res)
	}

	status, res = doReq(t, "POST", srv.URL+"/admin/worker/recover", `{"worker":0}`)
	if status != http.StatusOK {
		t.Fatalf("recover worker 0: %d %v", status, res)
	}
	status, _ = doReq(t, "GET", srv.URL+"/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("healthz after partial recovery: %d", status)
	}
	status, res = doReq(t, "GET", srv.URL+"/lookup?addr=10.0.0.1", "")
	if status != http.StatusOK {
		t.Fatalf("worker lookup after partial recovery: %d %v", status, res)
	}
}

// TestEndpointsAfterClose checks every mutating endpoint fails 503 once
// the runtime is closed, while the snapshot read side still answers.
func TestEndpointsAfterClose(t *testing.T) {
	rt := newTestRuntime(t, 2)
	srv := httptest.NewServer(newHandler(rt, nil))
	defer srv.Close()
	rt.Close()

	for _, tc := range []struct {
		method, path, body string
	}{
		{"GET", "/lookup?addr=10.0.0.1", ""},
		{"POST", "/lookup/batch", `{"addrs":["10.0.0.1"]}`},
		{"POST", "/announce", `{"prefix":"203.0.113.0/24","next_hop":7}`},
		{"POST", "/withdraw", `{"prefix":"203.0.113.0/24"}`},
		{"POST", "/admin/worker/fail", `{"worker":0}`},
	} {
		status, res := doReq(t, tc.method, srv.URL+tc.path, tc.body)
		if status != http.StatusServiceUnavailable {
			t.Errorf("%s %s after Close: got %d want 503 (%v)", tc.method, tc.path, status, res)
		}
	}

	status, res := doReq(t, "GET", srv.URL+"/lookup?addr=10.0.0.1&path=snapshot", "")
	if status != http.StatusOK {
		t.Errorf("snapshot lookup after Close: %d %v", status, res)
	}
	if status, _ := doReq(t, "GET", srv.URL+"/stats", ""); status != http.StatusOK {
		t.Errorf("stats after Close: %d", status)
	}
}

// TestSIGTERMShutdown reproduces main's signal wiring and delivers a real
// SIGTERM to the process, asserting the server drains and exits cleanly —
// the acceptance path for production shutdown.
func TestSIGTERMShutdown(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, out, shutdown := startServer(t, ctx, stop)
	_ = shutdown

	var res lookupResp
	getJSON(t, base+"/lookup?addr=10.0.0.1", &res)

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("server did not exit on SIGTERM")
		default:
		}
		if strings.Contains(out.String(), "drained") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown notice:\n%s", out.String())
	}
}

// TestDebugEndpoints covers the observability surface: the latency JSON
// view, the pprof index, and a runtime/trace capture through
// /debug/pprof/trace.
func TestDebugEndpoints(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	srv := httptest.NewServer(newHandler(rt, nil))
	defer srv.Close()

	status, res := doReq(t, "GET", srv.URL+"/debug/latency", "")
	if status != http.StatusOK {
		t.Fatalf("GET /debug/latency: %d", status)
	}
	for _, key := range []string{"snapshot_lookup", "dispatch_home", "dispatch_diverted",
		"dispatch_batch", "ttf_trie", "ttf_tcam", "ttf_dred",
		"snapshot_swap", "queue_depth"} {
		sub, ok := res[key].(map[string]any)
		if !ok {
			t.Fatalf("/debug/latency missing %q: %v", key, res)
		}
		if _, ok := sub["count"]; !ok {
			t.Fatalf("/debug/latency %q has no count: %v", key, sub)
		}
	}

	presp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pbody := new(bytes.Buffer)
	pbody.ReadFrom(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK || !strings.Contains(pbody.String(), "goroutine") {
		t.Fatalf("pprof index: %s %q", presp.Status, pbody.String())
	}

	// The runtime/trace capture: pprof's endpoint, always on.
	tresp, err := http.Get(srv.URL + "/debug/pprof/trace?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	tbody := new(bytes.Buffer)
	tbody.ReadFrom(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK || tbody.Len() == 0 {
		t.Fatalf("trace capture: %s, %d bytes", tresp.Status, tbody.Len())
	}
	if !bytes.HasPrefix(tbody.Bytes(), []byte("go 1.")) {
		t.Fatalf("trace capture is not a runtime/trace stream: %q", tbody.Bytes()[:min(tbody.Len(), 16)])
	}
}

// TestFollowMode runs the server as a replica of an in-process
// collector: it must bootstrap over the feed, serve lookups, reject
// local writes, expose the feed in stats/metrics/healthz, and track
// updates applied at the collector.
func TestFollowMode(t *testing.T) {
	fib, err := fibgen.Generate(fibgen.Config{Seed: 9, Routes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := feed.NewCollector(feed.CollectorConfig{BaseRoutes: fib.Routes()})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	feedAddr, err := coll.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	url, out, shutdown := startServer(t, ctx, cancel, "-follow", feedAddr.String(), "-workers", "2")

	if !strings.Contains(out.String(), "replica of "+feedAddr.String()) {
		t.Fatalf("startup banner: %q", out.String())
	}

	// Local writes are the collector's job.
	for _, ep := range []string{"/announce", "/withdraw"} {
		status, res := doReq(t, "POST", url+ep, `{"prefix":"10.0.0.0/8","next_hop":3}`)
		if status != http.StatusForbidden {
			t.Fatalf("POST %s on replica: got %d want 403 (%v)", ep, status, res)
		}
	}

	// Replicate a pinned /32 and wait for the replica to apply it.
	seq, err := coll.Apply([]ribio.UpdateRecord{{Prefix: ip.MustParsePrefix("203.0.113.5/32"), NextHop: 77}})
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Feed feed.FollowerStats `json:"feed"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, url+"/stats", &st)
		if st.Feed.LastApplied >= seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached seq %d: %+v", seq, st.Feed)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Feed.State != "streaming" {
		t.Fatalf("feed state %q, want streaming", st.Feed.State)
	}

	var lr lookupResp
	getJSON(t, url+"/lookup?addr=203.0.113.5", &lr)
	if !lr.Found || lr.NextHop != 77 {
		t.Fatalf("replicated route not served: %+v", lr)
	}

	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := new(bytes.Buffer)
	mbody.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"clue_feed_streaming 1", "clue_feed_lag_batches", "clue_feed_snapshot_loads_total 1"} {
		if !strings.Contains(mbody.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mbody.String())
		}
	}

	hresp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody := new(bytes.Buffer)
	hbody.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(hbody.String(), "feed: streaming at seq") {
		t.Fatalf("healthz on live replica: %s %q", hresp.Status, hbody.String())
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestFollowModeRejectsLocalSources: -follow and -fib/-router conflict.
func TestFollowModeRejectsLocalSources(t *testing.T) {
	out := new(syncBuffer)
	err := run(context.Background(), []string{"-follow", "127.0.0.1:1", "-fib", "x.rib"}, out, nil)
	if err == nil || !strings.Contains(err.Error(), "-follow") {
		t.Fatalf("conflicting sources accepted: %v", err)
	}
}

// TestSnapshotLookupVersionAnswers holds GET /lookup to the version of
// the snapshot that actually answered, on both paths. One goroutine
// flips 10.0.0.0/8 in and out of a two-route table, one publication per
// op, so the answer for 10.1.2.3 is fixed by the parity of its version:
// hop 7 after an odd number of publications past the base, no route
// after an even one.
func TestSnapshotLookupVersionAnswers(t *testing.T) {
	rt, err := serve.New([]ip.Route{
		{Prefix: ip.MustParsePrefix("172.16.0.0/12"), NextHop: 2},
		{Prefix: ip.MustParsePrefix("192.168.0.0/16"), NextHop: 1},
	}, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h := newHandler(rt, nil)
	base := rt.Version()
	flip := ip.MustParsePrefix("10.0.0.0/8")

	stop := make(chan struct{})
	flipped := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				flipped <- nil
				return
			default:
			}
			if _, err := rt.Announce(flip, 7); err != nil {
				flipped <- err
				return
			}
			if _, err := rt.Withdraw(flip); err != nil {
				flipped <- err
				return
			}
		}
	}()

	for _, path := range []string{"snapshot", "worker"} {
		mismatches := 0
		for i := 0; i < 10000; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/lookup?addr=10.1.2.3&path="+path, nil))
			var res lookupResp
			if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
				t.Fatalf("%s: status %d: %v", path, rec.Code, err)
			}
			announced := (res.Version-base)%2 == 1
			if res.Found != announced || (announced && res.NextHop != 7) {
				mismatches++
			}
		}
		if mismatches != 0 {
			t.Errorf("path=%s: %d of 10000 answers disagree with their snapshot_version", path, mismatches)
		}
	}
	close(stop)
	if err := <-flipped; err != nil {
		t.Fatal(err)
	}
}
