// Command clue-serve runs the CLUE forwarding engine as a concurrent
// HTTP service: lock-free RCU snapshot lookups dispatched to partition
// workers, with live announce/withdraw batching through the incremental
// ONRTC updater and per-update TTF accounting (the paper's cost model
// over each compressed-table diff; no TCAM chips are simulated).
//
// Usage:
//
//	clue-serve [-addr 127.0.0.1:8080] [-fib table.rib | -router rrc01 | -routes 20000]
//	           [-workers 4] [-queue 256]
//	           [-router-scale 10] [-seed 42]
//	           [-rebalance-interval 0] [-rebalance-max-move 0.25]
//	clue-serve -follow 127.0.0.1:9090 [-addr ...] [-workers ...] ...
//
// With -follow the server runs as a read-only replica: instead of
// loading a local FIB it connects to a clue-collector feed, bootstraps
// from its snapshot and applies the replicated update stream through
// the normal writer pipeline. The lookup, stats, metrics, health and
// debug surfaces are unchanged; /announce and /withdraw return 403
// (the collector owns the table); /stats gains a "feed" section and
// /metrics gains clue_feed_* gauges (state, lag, reconnects, hash
// checks/mismatches); /healthz reports the feed state and lag and goes
// degraded while the replica is disconnected or resyncing.
//
// Endpoints:
//
//	GET  /lookup?addr=A[&path=snapshot] — resolve A (worker dispatch by
//	     default; path=snapshot uses the direct RCU read side)
//	POST /lookup/batch {"addrs":["1.2.3.4",...],"path":"snapshot"|""} —
//	     resolve up to 8192 addresses against one snapshot (grouped
//	     worker dispatch by default)
//	POST /announce {"prefix":"10.0.0.0/8","next_hop":3} — apply + TTF
//	POST /withdraw {"prefix":"10.0.0.0/8"} — apply + TTF
//	GET  /stats    — full runtime statistics as JSON
//	GET  /metrics  — Prometheus text exposition
//	GET  /healthz  — liveness + degraded-mode status (503 when no
//	     worker is healthy; the snapshot path still answers then)
//	GET  /debug/latency — latency/queue-depth histogram summaries
//	     (p50/p90/p99/max plus sparse power-of-two buckets) as JSON
//	GET  /debug/pprof/* — the standard net/http/pprof profiling surface,
//	     including /debug/pprof/trace?seconds=N for a runtime/trace
//	POST /admin/worker/fail {"worker":N} — take worker N out of service
//	     and re-home its range across the survivors
//	POST /admin/worker/recover {"worker":N} — return worker N to service
//	GET  /admin/worker — per-worker health states
//	POST /admin/rebalance — run one forced load-aware repartitioning
//	     pass now and report its outcome (recut or skip reason,
//	     imbalance before/after, routes moved)
//
// SIGINT/SIGTERM drain the listener and the update queue, then exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clue/internal/feed"
	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/serve"
	"clue/internal/ttf"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "clue-serve:", err)
		os.Exit(1)
	}
}

// run builds the runtime, serves until ctx is cancelled, then drains.
// ready (optional) receives the bound listener address once accepting.
func run(ctx context.Context, args []string, out io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("clue-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	fibPath := fs.String("fib", "", "load the FIB from a ribio file")
	router := fs.String("router", "", "load a fibgen router profile (e.g. rrc01)")
	routerScale := fs.Int("router-scale", 10, "divide the router profile size by this factor")
	nRoutes := fs.Int("routes", 20000, "synthetic FIB size (when -fib/-router unset)")
	seed := fs.Int64("seed", 42, "synthetic FIB seed")
	workers := fs.Int("workers", 0, "partition worker goroutines (0 = default 4)")
	queue := fs.Int("queue", 256, "per-worker queue depth")
	follow := fs.String("follow", "", "run as a read-only replica of the clue-collector feed at this address")
	rebInterval := fs.Duration("rebalance-interval", 0, "load-aware repartitioning pass interval (0 disables the loop; /admin/rebalance still works)")
	rebMaxMove := fs.Float64("rebalance-max-move", 0, "max fraction of routes re-homed per recut (0 = default 0.25)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scfg := serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Rebalance: serve.RebalanceConfig{
			Interval:        *rebInterval,
			MaxMoveFraction: *rebMaxMove,
		},
	}
	var (
		rt      *serve.Runtime
		fl      *feed.Follower
		source  string
		nLoaded int
	)
	if *follow != "" {
		if *fibPath != "" || *router != "" {
			return errors.New("-follow replaces the local FIB source; drop -fib/-router")
		}
		var err error
		rt, fl, err = followFeed(ctx, *follow, scfg)
		if err != nil {
			return err
		}
	} else {
		var origin string
		routes, origin, err := loadRoutes(*fibPath, *router, *routerScale, *nRoutes, *seed)
		if err != nil {
			return err
		}
		rt, err = serve.New(routes, scfg)
		if err != nil {
			return err
		}
		nLoaded = len(routes)
		source = origin
	}
	closeAll := func() {
		if fl != nil {
			fl.Close()
		}
		rt.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeAll()
		return err
	}
	st := rt.Stats()
	if fl != nil {
		fmt.Fprintf(out, "clue-serve: replica of %s — %d compressed routes at feed seq %d, %d workers, listening on %s\n",
			*follow, st.Routes, fl.Stats().LastApplied, st.Workers, ln.Addr())
	} else {
		fmt.Fprintf(out, "clue-serve: %s — %d routes compressed to %d, %d workers, listening on %s\n",
			source, nLoaded, st.Routes, st.Workers, ln.Addr())
	}
	if ready != nil {
		ready(ln.Addr())
	}

	srv := &http.Server{Handler: newHandler(rt, fl)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "clue-serve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			closeAll()
			return err
		}
		closeAll()
		final := rt.Stats()
		fmt.Fprintf(out, "clue-serve: drained — %d lookups (%d dispatched, %.2f%% diverted), %d updates in %d batches\n",
			final.SnapshotLookups+final.Dispatched, final.Dispatched,
			100*final.DivertRate(), final.Announces+final.Withdraws, final.Batches)
		return nil
	case err := <-errCh:
		closeAll()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// loadRoutes resolves the FIB source precedence: file, router profile,
// then synthetic.
func loadRoutes(fibPath, router string, routerScale, nRoutes int, seed int64) ([]ip.Route, string, error) {
	switch {
	case fibPath != "":
		f, err := os.Open(fibPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		routes, err := ribio.Read(f)
		if err != nil {
			return nil, "", err
		}
		return routes, fmt.Sprintf("fib %s", fibPath), nil
	case router != "":
		profiles, err := fibgen.ScaleRouters(routerScale)
		if err != nil {
			return nil, "", err
		}
		for _, r := range profiles {
			if r.ID == router {
				fib, err := fibgen.Generate(r.Config())
				if err != nil {
					return nil, "", err
				}
				return fib.Routes(), fmt.Sprintf("router %s (%s, scale 1/%d)", r.ID, r.Location, routerScale), nil
			}
		}
		return nil, "", fmt.Errorf("unknown router profile %q", router)
	default:
		fib, err := fibgen.Generate(fibgen.Config{Seed: seed, Routes: nRoutes})
		if err != nil {
			return nil, "", err
		}
		return fib.Routes(), fmt.Sprintf("synthetic FIB (%d routes, seed %d)", nRoutes, seed), nil
	}
}

// followFeed connects a follower to a clue-collector and blocks until
// the bootstrap snapshot has built the runtime (or ctx is cancelled).
// The runtime pointer is stable after bootstrap: later re-snapshots
// are reconciled through it, never by replacing it.
func followFeed(ctx context.Context, addr string, scfg serve.Config) (*serve.Runtime, *feed.Follower, error) {
	app := feed.NewRuntimeApplier(scfg)
	fl, err := feed.NewFollower(feed.FollowerConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
		Applier: app,
	})
	if err != nil {
		return nil, nil, err
	}
	bootDeadline := time.Now().Add(30 * time.Second)
	for app.Runtime() == nil {
		if err := ctx.Err(); err != nil {
			fl.Close()
			return nil, nil, err
		}
		if time.Now().After(bootDeadline) {
			fl.Close()
			return nil, nil, fmt.Errorf("no bootstrap snapshot from %s within 30s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return app.Runtime(), fl, nil
}

// maxBatchAddrs bounds one /lookup/batch request.
const maxBatchAddrs = 8192

// newHandler wires the HTTP surface around the runtime. fl is non-nil
// in replica mode (-follow): local mutations are rejected and the
// stats, metrics and health surfaces grow the replication feed's state.
func newHandler(rt *serve.Runtime, fl *feed.Follower) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /lookup", func(w http.ResponseWriter, r *http.Request) {
		a, err := ip.ParseAddr(r.URL.Query().Get("addr"))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		type lookupResp struct {
			Addr     string `json:"addr"`
			NextHop  uint32 `json:"next_hop"`
			Prefix   string `json:"prefix,omitempty"`
			Found    bool   `json:"found"`
			Path     string `json:"path"`
			Home     int    `json:"home,omitempty"`
			Worker   int    `json:"worker,omitempty"`
			Diverted bool   `json:"diverted,omitempty"`
			Version  uint64 `json:"snapshot_version"`
		}
		resp := lookupResp{Addr: a.String()}
		if r.URL.Query().Get("path") == "snapshot" {
			resp.Path = "snapshot"
			// A one-address batch returns the version of the snapshot that
			// answered; reading Version separately could stamp the answer
			// with a later publication.
			var res [1]serve.LookupResult
			_, resp.Version = rt.LookupBatch([]ip.Addr{a}, res[:])
			resp.NextHop, resp.Found = uint32(res[0].Hop), res[0].Found
			if res[0].Found {
				resp.Prefix = res[0].Prefix.String()
			}
		} else {
			resp.Path = "worker"
			res, err := rt.Dispatch(a)
			if err != nil {
				httpError(w, http.StatusServiceUnavailable, err)
				return
			}
			resp.NextHop, resp.Found, resp.Version = uint32(res.Hop), res.Found, res.Version
			resp.Home, resp.Worker, resp.Diverted = res.Home, res.Worker, res.Diverted
			if res.Found {
				resp.Prefix = res.Prefix.String()
			}
		}
		writeJSON(w, resp)
	})

	mux.HandleFunc("POST /lookup/batch", func(w http.ResponseWriter, r *http.Request) {
		sc := scratchPool.Get().(*batchScratch)
		defer scratchPool.Put(sc)
		var ok bool
		if sc.body, ok = readBody(w, r, 1<<20, sc.body[:0]); !ok {
			return
		}
		addrs, snapshot, err := decodeBatch(sc.body, sc.addrs)
		sc.addrs = addrs
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if len(addrs) == 0 {
			httpError(w, http.StatusBadRequest, errors.New("addrs must be a non-empty array"))
			return
		}
		if len(addrs) > maxBatchAddrs {
			httpError(w, http.StatusBadRequest, fmt.Errorf("batch of %d addrs exceeds limit %d", len(addrs), maxBatchAddrs))
			return
		}
		if snapshot {
			var version uint64
			sc.lres, version = rt.LookupBatch(addrs, sc.lres)
			sc.buf = appendBatchSnapshot(sc.buf[:0], addrs, sc.lres, version)
		} else {
			sc.dres, err = rt.DispatchBatch(addrs, sc.dres)
			if err != nil {
				httpError(w, http.StatusServiceUnavailable, err)
				return
			}
			sc.buf = appendBatchWorker(sc.buf[:0], addrs, sc.dres)
		}
		writeReply(w, sc.buf)
	})

	type updateReq struct {
		Prefix  string `json:"prefix"`
		NextHop uint32 `json:"next_hop"`
	}
	type updateResp struct {
		Prefix   string  `json:"prefix"`
		TTFTrie  float64 `json:"ttf_trie_ns"`
		TTFTCAM  float64 `json:"ttf_tcam_ns"`
		TTFDRed  float64 `json:"ttf_dred_ns"`
		TTFTotal float64 `json:"ttf_total_ns"`
	}
	applyUpdate := func(w http.ResponseWriter, r *http.Request, apply func(ip.Prefix, ip.NextHop) (ttf.TTF, error), needHop bool) {
		var req updateReq
		if !decodeBody(w, r, 1<<16, &req) {
			return
		}
		p, err := ip.ParsePrefix(req.Prefix)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if needHop && req.NextHop == 0 {
			httpError(w, http.StatusBadRequest, errors.New("next_hop must be a positive integer"))
			return
		}
		ttf, err := apply(p, ip.NextHop(req.NextHop))
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, serve.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			httpError(w, status, err)
			return
		}
		writeJSON(w, updateResp{
			Prefix: p.String(), TTFTrie: ttf.Trie, TTFTCAM: ttf.TCAM,
			TTFDRed: ttf.DRed, TTFTotal: ttf.Total(),
		})
	}
	rejectReplicaWrite := func(w http.ResponseWriter) bool {
		if fl == nil {
			return false
		}
		httpError(w, http.StatusForbidden, errors.New("replica is read-only: updates come from the collector feed"))
		return true
	}
	mux.HandleFunc("POST /announce", func(w http.ResponseWriter, r *http.Request) {
		if rejectReplicaWrite(w) {
			return
		}
		applyUpdate(w, r, rt.Announce, true)
	})
	mux.HandleFunc("POST /withdraw", func(w http.ResponseWriter, r *http.Request) {
		if rejectReplicaWrite(w) {
			return
		}
		applyUpdate(w, r, func(p ip.Prefix, _ ip.NextHop) (ttf.TTF, error) {
			return rt.Withdraw(p)
		}, false)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		if fl != nil {
			writeJSON(w, struct {
				serve.Stats
				Feed feed.FollowerStats `json:"feed"`
			}{rt.Stats(), fl.Stats()})
			return
		}
		writeJSON(w, rt.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.Stats().WritePrometheus(w)
		if fl != nil {
			writeFeedPrometheus(w, fl.Stats())
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		states := rt.WorkerStates()
		healthy := 0
		for _, s := range states {
			if s == serve.WorkerHealthy {
				healthy++
			}
		}
		var fst feed.FollowerStats
		feedBehind := false
		if fl != nil {
			fst = fl.Stats()
			feedBehind = fst.State != "streaming"
		}
		switch {
		case healthy == 0:
			// Worker-path forwarding is down; only the snapshot path answers.
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "no healthy workers (snapshot path only)\n")
		case healthy == len(states) && !feedBehind:
			fmt.Fprintln(w, "ok")
		default:
			// Degraded but forwarding: the survivors own the whole table,
			// and a disconnected replica still answers from its last state.
			if healthy < len(states) {
				fmt.Fprintf(w, "degraded: %d/%d workers healthy\n", healthy, len(states))
			}
			if feedBehind {
				fmt.Fprintf(w, "degraded: feed %s (lag %d)\n", fst.State, fst.Lag)
			}
		}
		if fl != nil && !feedBehind {
			fmt.Fprintf(w, "feed: streaming at seq %d (lag %d)\n", fst.LastApplied, fst.Lag)
		}
	})

	type workerReq struct {
		Worker *int `json:"worker"`
	}
	workerStates := func() []map[string]any {
		states := rt.WorkerStates()
		out := make([]map[string]any, len(states))
		for i, s := range states {
			out[i] = map[string]any{"worker": i, "state": s.String()}
		}
		return out
	}
	adminWorker := func(action string, apply func(int) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req workerReq
			if !decodeBody(w, r, 1<<12, &req) {
				return
			}
			if req.Worker == nil {
				httpError(w, http.StatusBadRequest, errors.New("worker must be set"))
				return
			}
			if err := apply(*req.Worker); err != nil {
				status := http.StatusInternalServerError
				switch {
				case errors.Is(err, serve.ErrUnknownWorker):
					status = http.StatusNotFound
				case errors.Is(err, serve.ErrWorkerState):
					// Double-fail, recover-when-healthy, failing the last
					// healthy worker: the request conflicts with the
					// worker's current state.
					status = http.StatusConflict
				case errors.Is(err, serve.ErrClosed):
					status = http.StatusServiceUnavailable
				}
				httpError(w, status, err)
				return
			}
			writeJSON(w, map[string]any{"action": action, "worker": *req.Worker, "workers": workerStates()})
		}
	}
	mux.HandleFunc("GET /debug/latency", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, rt.Stats().Latency)
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("POST /admin/worker/fail", adminWorker("fail", rt.FailWorker))
	mux.HandleFunc("POST /admin/worker/recover", adminWorker("recover", rt.RecoverWorker))
	mux.HandleFunc("GET /admin/worker", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"workers": workerStates()})
	})
	mux.HandleFunc("POST /admin/rebalance", func(w http.ResponseWriter, _ *http.Request) {
		res, err := rt.Rebalance(true)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, serve.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			httpError(w, status, err)
			return
		}
		writeJSON(w, res)
	})
	return mux
}

// writeFeedPrometheus appends the replication feed's state to the
// /metrics exposition, mirroring serve.Stats.WritePrometheus's style.
func writeFeedPrometheus(w io.Writer, s feed.FollowerStats) {
	emit := func(name, typ, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	streaming := 0.0
	if s.State == "streaming" {
		streaming = 1
	}
	emit("clue_feed_streaming", "gauge", "1 while the replica is connected and applying the live stream.", streaming)
	emit("clue_feed_last_applied_seq", "gauge", "Last feed batch fully applied by this replica.", float64(s.LastApplied))
	emit("clue_feed_head_seq", "gauge", "Collector head sequence as of the last frame seen.", float64(s.Head))
	emit("clue_feed_lag_batches", "gauge", "Batches between the collector head and this replica.", float64(s.Lag))
	emit("clue_feed_reconnects_total", "counter", "Feed sessions opened after the first.", float64(s.Reconnects))
	emit("clue_feed_snapshot_loads_total", "counter", "Full snapshot bootstraps (first connect and re-syncs).", float64(s.SnapshotLoads))
	emit("clue_feed_resumes_total", "counter", "Reconnects resumed from the replay window without a snapshot.", float64(s.Resumes))
	emit("clue_feed_batches_total", "counter", "Update batches applied from the feed.", float64(s.Batches))
	emit("clue_feed_records_total", "counter", "Update records applied from the feed.", float64(s.Records))
	emit("clue_feed_hash_checks_total", "counter", "Canonical-table hash frames verified.", float64(s.HashChecks))
	emit("clue_feed_hash_mismatches_total", "counter", "Hash frames that did not match (each forces a re-sync).", float64(s.HashMismatches))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
