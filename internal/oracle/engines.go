package oracle

import (
	"errors"
	"fmt"

	"clue/internal/engine"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
	"clue/internal/update"
)

// Answer is one engine's reply to a probe. Skip means the engine cannot
// answer this probe (a statically-built system mid-churn, or a table too
// small to partition) and the comparison is waived — never that the
// lookup missed, which is Found=false.
type Answer struct {
	Hop   ip.NextHop
	Found bool
	Skip  bool
}

// Engine is one lookup implementation under differential test. Lookup
// may return an error only for internal divergence the engine itself can
// see (e.g. serve's worker path disagreeing with its snapshot path);
// wrong answers are the driver's to detect, against the model.
type Engine interface {
	// Name labels the engine in failures ("table", "serve", ...).
	Name() string
	// Stepwise reports that mutations and lookups are cheap enough for
	// the driver's per-step boundary probes. Non-stepwise engines are
	// probed only at checkpoints, after Check rebuilds them.
	Stepwise() bool
	Announce(p ip.Prefix, hop ip.NextHop) error
	Withdraw(p ip.Prefix) error
	Lookup(addr ip.Addr) (Answer, error)
	// Check asserts the engine's structural invariants (disjointness,
	// store coherence, cache freshness) against itself and the model.
	Check(m *Model) error
	Close()
}

// Optional capabilities: the driver feature-detects these instead of
// forcing no-op methods onto every engine.
type (
	batchLooker interface {
		LookupBatch(addrs []ip.Addr) ([]Answer, error)
	}
	faultInjector interface {
		FailWorker(id int) error
		RecoverWorker(id int) error
	}
	flusher interface{ Flush() error }
	swapper interface{ Swap() error }
	// rebalancer forces one load-aware repartitioning pass — a live cut
	// move the driver's subsequent lookups and checkpoints must not be
	// able to observe in any answer.
	rebalancer interface{ Rebalance() error }
	// tableDumper exposes the engine's compressed-table contents; the
	// driver cross-compares every dump against a fresh compression of
	// the model's FIB, so the independent ONRTC replicas must agree
	// entry for entry.
	tableDumper interface{ TableRoutes() []ip.Route }
)

// AllEngines returns the names of every available engine, in driver
// order.
func AllEngines() []string {
	return []string{"table", "clue-pipe", "clpl-pipe", "slpl-sys", "clpl-sys", "serve", "feed"}
}

// buildEngines constructs the selected engines over the base route set.
// Each engine owns a private trie built from routes, so no state is
// shared across implementations.
func buildEngines(cfg Config, routes []ip.Route) ([]Engine, error) {
	var out []Engine
	for _, name := range cfg.Engines {
		e, err := buildEngine(cfg, name, routes)
		if err != nil {
			for _, b := range out {
				b.Close()
			}
			return nil, fmt.Errorf("oracle: building %s: %w", name, err)
		}
		out = append(out, e)
	}
	return out, nil
}

func buildEngine(cfg Config, name string, routes []ip.Route) (Engine, error) {
	switch name {
	case "table":
		return &tableEngine{u: onrtc.BuildUpdater(trie.FromRoutes(routes))}, nil
	case "clue-pipe":
		p, err := update.NewCLUEPipeline(trie.FromRoutes(routes), 4, 64, update.DefaultCosts())
		if err != nil {
			return nil, err
		}
		return &cluePipeEngine{p: p}, nil
	case "clpl-pipe":
		p, err := update.NewCLPLPipeline(trie.FromRoutes(routes), 4, 64, update.DefaultCosts())
		if err != nil {
			return nil, err
		}
		return &clplPipeEngine{p: p}, nil
	case "slpl-sys":
		return newSysEngine("slpl-sys", routes, buildSLPL), nil
	case "clpl-sys":
		return newSysEngine("clpl-sys", routes, func(fib *trie.Trie) (engine.System, error) {
			return engine.NewCLPLSystem(fib, 2, 2, nil)
		}), nil
	case "serve":
		rt, err := serve.New(routes, serve.Config{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		return &serveEngine{rt: rt}, nil
	case "feed":
		return newFeedEngine(cfg, routes)
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

// tableEngine is the raw compressed table under ONRTC incremental
// update — the innermost mechanism everything else builds on. Check
// re-compresses the live FIB from scratch and demands the incrementally
// maintained table match the batch result exactly.
type tableEngine struct {
	u *onrtc.Updater
}

func (e *tableEngine) Name() string   { return "table" }
func (e *tableEngine) Stepwise() bool { return true }
func (e *tableEngine) Close()         {}

func (e *tableEngine) Announce(p ip.Prefix, hop ip.NextHop) error {
	e.u.Announce(p, hop)
	return nil
}

func (e *tableEngine) Withdraw(p ip.Prefix) error {
	e.u.Withdraw(p)
	return nil
}

func (e *tableEngine) Lookup(addr ip.Addr) (Answer, error) {
	hop, _ := e.u.Table().Lookup(addr, nil)
	return Answer{Hop: hop, Found: hop != ip.NoRoute}, nil
}

func (e *tableEngine) Check(*Model) error {
	if err := e.u.Table().VerifyDisjoint(); err != nil {
		return err
	}
	want := onrtc.Compress(e.u.FIB()).Routes()
	got := e.u.Table().Routes()
	if err := routesEqual(got, want); err != nil {
		return fmt.Errorf("incremental table diverged from batch compression: %w", err)
	}
	return nil
}

func (e *tableEngine) TableRoutes() []ip.Route { return e.u.Table().Routes() }

// cluePipeEngine is the full CLUE update pipeline: trie → compressed
// TCAM → DRed group. Lookups answer from the TCAM model and emulate the
// engine fill rule (hit prefix cached into the other DReds) so withdraw
// churn runs against populated caches — the TTF3 no-stale-entry
// invariant is vacuous over empty DReds.
type cluePipeEngine struct {
	p     *update.CLUEPipeline
	fills int
}

func (e *cluePipeEngine) Name() string   { return "clue-pipe" }
func (e *cluePipeEngine) Stepwise() bool { return true }
func (e *cluePipeEngine) Close()         {}

func (e *cluePipeEngine) Announce(p ip.Prefix, hop ip.NextHop) error {
	_, err := e.p.Apply(tracegen.Update{Kind: tracegen.Announce, Prefix: p, Hop: hop})
	return err
}

func (e *cluePipeEngine) Withdraw(p ip.Prefix) error {
	_, err := e.p.Apply(tracegen.Update{Kind: tracegen.Withdraw, Prefix: p})
	return err
}

func (e *cluePipeEngine) Lookup(addr ip.Addr) (Answer, error) {
	hop, pfx, ok := e.p.Chip().Lookup(addr)
	if ok {
		e.fills++
		e.p.DReds().InsertExcept(e.fills%e.p.DReds().N(), ip.Route{Prefix: pfx, NextHop: hop})
	}
	return Answer{Hop: hop, Found: ok}, nil
}

func (e *cluePipeEngine) Check(*Model) error { return e.p.VerifyCoherence() }

func (e *cluePipeEngine) Flush() error {
	g := e.p.DReds()
	for i := 0; i < g.N(); i++ {
		g.Cache(i).Reset()
	}
	return nil
}

func (e *cluePipeEngine) TableRoutes() []ip.Route { return e.p.Chip().Routes() }

// clplPipeEngine is the baseline update pipeline: uncompressed trie, PLO
// TCAM, RRC-ME logical caches. Hits periodically warm the caches so
// update-time invalidation (InvalidateOverlapping) runs against real
// expansions; Check then demands every surviving expansion still
// forwards its whole block to the cached hop.
type clplPipeEngine struct {
	p    *update.CLPLPipeline
	hits int
}

func (e *clplPipeEngine) Name() string   { return "clpl-pipe" }
func (e *clplPipeEngine) Stepwise() bool { return true }
func (e *clplPipeEngine) Close()         {}

func (e *clplPipeEngine) Announce(p ip.Prefix, hop ip.NextHop) error {
	_, err := e.p.Apply(tracegen.Update{Kind: tracegen.Announce, Prefix: p, Hop: hop})
	return err
}

func (e *clplPipeEngine) Withdraw(p ip.Prefix) error {
	_, err := e.p.Apply(tracegen.Update{Kind: tracegen.Withdraw, Prefix: p})
	return err
}

func (e *clplPipeEngine) Lookup(addr ip.Addr) (Answer, error) {
	hop, _, ok := e.p.Chip().Lookup(addr)
	if ok {
		e.hits++
		if e.hits%2 == 0 {
			e.p.Warm([]ip.Addr{addr})
		}
	}
	return Answer{Hop: hop, Found: ok}, nil
}

// Check verifies cache freshness: an RRC-ME expansion promises its whole
// block forwards to one hop, so any block boundary disagreeing with the
// model means update-time invalidation missed an affected entry.
func (e *clplPipeEngine) Check(m *Model) error {
	g := e.p.Caches()
	for i := 0; i < g.N(); i++ {
		for _, r := range g.Cache(i).Routes() {
			for _, a := range []ip.Addr{r.Prefix.First(), r.Prefix.Last()} {
				hop, ok := m.Lookup(a)
				if !ok || hop != r.NextHop {
					return fmt.Errorf("cache %d holds stale expansion %v: model says hop %d found %v at %s", i, r, hop, ok, a)
				}
			}
		}
	}
	return nil
}

func (e *clplPipeEngine) Flush() error {
	g := e.p.Caches()
	for i := 0; i < g.N(); i++ {
		g.Cache(i).Reset()
	}
	return nil
}

// sysEngine wraps a statically-constructed parallel system (SLPL,
// CLPL): the build has no incremental update path, so mutations go to a
// mirror trie and mark the system dirty. Lookups answer only from a
// clean build (Skip otherwise); Check rebuilds from the mirror, so every
// checkpoint validates the partition construction itself over the
// churned table.
type sysEngine struct {
	name   string
	mirror *trie.Trie
	build  func(fib *trie.Trie) (engine.System, error)
	sys    engine.System
	dirty  bool
}

// minSysRoutes is the floor below which the partitioners cannot carve a
// meaningful layout; smaller tables are skipped rather than failed.
const minSysRoutes = 16

func newSysEngine(name string, routes []ip.Route, build func(*trie.Trie) (engine.System, error)) *sysEngine {
	return &sysEngine{name: name, mirror: trie.FromRoutes(routes), build: build, dirty: true}
}

func buildSLPL(fib *trie.Trie) (engine.System, error) {
	routes := fib.Routes()
	sample := make([]ip.Addr, 0, 128)
	for i, r := range routes {
		if i >= 128 {
			break
		}
		sample = append(sample, r.Prefix.First())
	}
	return engine.NewSLPLSystem(fib, 2, sample, 0.25)
}

func (e *sysEngine) Name() string   { return e.name }
func (e *sysEngine) Stepwise() bool { return false }
func (e *sysEngine) Close()         {}

func (e *sysEngine) Announce(p ip.Prefix, hop ip.NextHop) error {
	e.mirror.Insert(p, hop, nil)
	e.dirty = true
	return nil
}

func (e *sysEngine) Withdraw(p ip.Prefix) error {
	e.mirror.Delete(p, nil)
	e.dirty = true
	return nil
}

func (e *sysEngine) Lookup(addr ip.Addr) (Answer, error) {
	if e.dirty || e.sys == nil {
		return Answer{Skip: true}, nil
	}
	hop, ok := engine.Resolve(e.sys, addr)
	return Answer{Hop: hop, Found: ok}, nil
}

func (e *sysEngine) Check(*Model) error {
	if e.mirror.Len() < minSysRoutes {
		e.sys = nil
		return nil
	}
	// Build from a clone: the constructors take ownership of the trie,
	// and the mirror keeps mutating afterwards.
	sys, err := e.build(e.mirror.Clone())
	if err != nil {
		return fmt.Errorf("rebuild over %d routes: %w", e.mirror.Len(), err)
	}
	e.sys, e.dirty = sys, false
	return nil
}

// serveEngine is the full concurrent runtime. Lookups answer from the
// snapshot path; every fourth call additionally runs the worker dispatch
// path (queues, divert) and demands it agree with
// the snapshot — the driver is single-writer, so the two paths see the
// same published table. Batch commands run through DispatchBatch.
type serveEngine struct {
	rt    *serve.Runtime
	calls int
}

func (e *serveEngine) Name() string   { return "serve" }
func (e *serveEngine) Stepwise() bool { return true }
func (e *serveEngine) Close()         { e.rt.Close() }

func (e *serveEngine) Announce(p ip.Prefix, hop ip.NextHop) error {
	_, err := e.rt.Announce(p, hop)
	return err
}

func (e *serveEngine) Withdraw(p ip.Prefix) error {
	_, err := e.rt.Withdraw(p)
	return err
}

func (e *serveEngine) Lookup(addr ip.Addr) (Answer, error) {
	hop, _, ok := e.rt.Lookup(addr)
	e.calls++
	if e.calls%4 == 0 {
		res, err := e.rt.Dispatch(addr)
		if err != nil {
			return Answer{}, fmt.Errorf("dispatch %s: %w", addr, err)
		}
		if res.Found != ok || (ok && res.Hop != hop) {
			return Answer{}, fmt.Errorf("dispatch diverged from snapshot at %s: worker %d said hop %d found %v, snapshot hop %d found %v",
				addr, res.Worker, res.Hop, res.Found, hop, ok)
		}
	}
	return Answer{Hop: hop, Found: ok}, nil
}

func (e *serveEngine) LookupBatch(addrs []ip.Addr) ([]Answer, error) {
	results, err := e.rt.DispatchBatch(addrs, nil)
	if err != nil {
		return nil, fmt.Errorf("dispatch batch: %w", err)
	}
	out := make([]Answer, len(results))
	for i, r := range results {
		out[i] = Answer{Hop: r.Hop, Found: r.Found}
	}
	return out, nil
}

func (e *serveEngine) FailWorker(id int) error {
	return ignoreStateRefusal(e.rt.FailWorker(id))
}

func (e *serveEngine) RecoverWorker(id int) error {
	return ignoreStateRefusal(e.rt.RecoverWorker(id))
}

// ignoreStateRefusal drops ErrWorkerState: the lifecycle generator
// deliberately issues redundant fail/recover commands (double-fail,
// recover-when-healthy, failing the last worker) and the runtime
// refusing them is the correct behaviour, not a divergence.
func ignoreStateRefusal(err error) error {
	if errors.Is(err, serve.ErrWorkerState) {
		return nil
	}
	return err
}

func (e *serveEngine) Flush() error { return e.rt.Republish() }
func (e *serveEngine) Swap() error  { return e.rt.Republish() }

// Rebalance forces one repartitioning pass. The runtime legitimately
// declines a recut (no traffic signal, degraded workers, too few
// routes); that is hysteresis working, not a failure — only a real
// error (closed runtime, publication fault) propagates.
func (e *serveEngine) Rebalance() error {
	_, err := e.rt.Rebalance(true)
	return err
}

func (e *serveEngine) Check(*Model) error {
	return onrtc.VerifyDisjoint(e.rt.Snapshot().Routes())
}

func (e *serveEngine) TableRoutes() []ip.Route { return e.rt.Snapshot().Routes() }

// routesEqual compares two route dumps entry for entry.
func routesEqual(got, want []ip.Route) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d routes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
