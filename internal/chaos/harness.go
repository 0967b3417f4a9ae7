package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clue/internal/feed"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/ttf"
)

// harness is one booted topology plus its lookup traffic.
type harness struct {
	o Options
	// rts is every serving runtime: the one the program updates directly,
	// or one per replica.
	rts []*serve.Runtime

	// The replicated topology: the current collector, where followers
	// dial it, the replicas and the last batch's sequence number.
	coll *feed.Collector
	addr atomic.Value
	reps []*replica
	last uint64

	// releases are the worker stalls still in force.
	releases []func()

	phase                 atomic.Int32
	phaseLookups          []atomic.Int64
	lookups, dispatchErrs atomic.Int64
	stop                  chan struct{}
	stopOnce, closeOnce   sync.Once
	lookers               sync.WaitGroup
}

// replica is one follower runtime with its two fault points: the link
// (dials fail while down) and the apply pipeline (blocked while held).
type replica struct {
	app  *feed.RuntimeApplier
	gate *gatedApplier
	f    *feed.Follower
	down atomic.Bool
	held bool
}

// behind reports a replica the program has deliberately cut off: windows
// are not paced on it and checkpoints skip it.
func (r *replica) behind() bool { return r.down.Load() || r.held }

func (r *replica) release() {
	if r.held {
		r.held = false
		r.gate.hold.Unlock()
	}
}

// gatedApplier blocks a follower's apply pipeline while hold is locked,
// without touching its connection — the replication analog of a wedged
// writer.
type gatedApplier struct {
	feed.Applier
	hold sync.RWMutex
}

func (g *gatedApplier) wait() {
	g.hold.RLock()
	g.hold.RUnlock()
}

func (g *gatedApplier) Reset(routes []ip.Route) error {
	g.wait()
	return g.Applier.Reset(routes)
}

func (g *gatedApplier) Apply(recs []ribio.UpdateRecord) error {
	g.wait()
	return g.Applier.Apply(recs)
}

// boot builds the program's topology over its base FIB and starts the
// lookers. On error nothing is left running.
func boot(o Options, sc *tracegen.Scenario) (*harness, error) {
	h := &harness{o: o, stop: make(chan struct{}), phaseLookups: make([]atomic.Int64, len(sc.Phases))}
	// Each looker keeps one Traffic generator per phase. All share one
	// ranking seed — the popularity ranking derives from it, so
	// flash-crowd's Invert really is the same ranking reversed and the
	// fleet agrees on which prefixes are hot — while drawing from
	// per-looker DrawSeeds, so it does not march through one identical
	// sequence in lockstep.
	population := tracegen.PrefixesFromRoutes(sc.Base)
	traffic := make([][]*tracegen.Traffic, o.Lookers)
	for i := range traffic {
		for _, ph := range sc.Phases {
			tr, err := tracegen.NewTraffic(population, tracegen.TrafficConfig{
				Seed: o.Seed + 1000, DrawSeed: o.Seed + 9000 + int64(i),
				ZipfS: ph.Traffic.ZipfS, Repeat: ph.Traffic.Repeat, Invert: ph.Traffic.Invert,
			})
			if err != nil {
				return nil, fmt.Errorf("phase %s traffic: %w", ph.Name, err)
			}
			traffic[i] = append(traffic[i], tr)
		}
	}

	cfg := serve.Config{Workers: o.Workers}
	if o.paced {
		cfg.QueueDepth, cfg.ServicePace = pacedQueueDepth, ServicePace
		if o.rebalance {
			cfg.Rebalance = serve.RebalanceConfig{Interval: pacedRebalanceEvery, MaxMoveFraction: pacedMaxMove}
		}
	}
	if sc.Replicas == 0 {
		rt, err := serve.New(sc.Base, cfg)
		if err != nil {
			return nil, err
		}
		h.rts = []*serve.Runtime{rt}
	} else if err := h.bootFeed(sc, cfg); err != nil {
		h.close()
		return nil, err
	}
	for i := range traffic {
		h.lookers.Add(1)
		go h.look(i, traffic[i])
	}
	return h, nil
}

// bootFeed starts a collector over the base FIB and sc.Replicas
// runtime-backed followers, and waits for every bootstrap snapshot.
func (h *harness) bootFeed(sc *tracegen.Scenario, cfg serve.Config) error {
	if err := h.startCollector(sc.Base, 0); err != nil {
		return err
	}
	for i := 0; i < sc.Replicas; i++ {
		r := &replica{app: feed.NewRuntimeApplier(cfg)}
		r.gate = &gatedApplier{Applier: r.app}
		h.reps = append(h.reps, r)
		var err error
		r.f, err = feed.NewFollower(feed.FollowerConfig{
			Dial: func() (net.Conn, error) {
				if r.down.Load() {
					return nil, errors.New("chaos: link down")
				}
				return net.DialTimeout("tcp", h.addr.Load().(string), time.Second)
			},
			Applier:    r.gate,
			BackoffMin: time.Millisecond,
			BackoffMax: 50 * time.Millisecond,
			Logf:       func(format string, args ...any) { h.o.logf(fmt.Sprintf("follower-%d: ", i)+format, args...) },
		})
		if err != nil {
			return err
		}
	}
	deadline := time.Now().Add(followerTimeout)
	for i, r := range h.reps {
		for r.app.Runtime() == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %d never loaded its bootstrap snapshot", i)
			}
			time.Sleep(time.Millisecond)
		}
		h.rts = append(h.rts, r.app.Runtime())
	}
	return nil
}

// startCollector replaces h.coll with a listening collector over base
// whose first batch is startSeq+1, and points the followers' dials at it.
func (h *harness) startCollector(base []ip.Route, startSeq uint64) error {
	c, err := feed.NewCollector(feed.CollectorConfig{
		BaseRoutes: base, StartSeq: startSeq, Window: feedWindow, HashEvery: feedHashEvery, Logf: h.o.logf,
	})
	if err != nil {
		return err
	}
	h.coll = c
	if _, err := c.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	h.addr.Store(c.Addr().String())
	return nil
}

// look is the one traffic loop: looker i draws from the current phase's
// generator and hits runtime i mod N — mostly the dispatch path, where
// diversion and degraded mode live, with snapshot lookups and batches
// mixed in. Lookers check liveness (no dispatch may fail while a worker
// is alive), not answers; answers are the checkpoints' job. Paced
// lookers offer semi-open-loop load instead: a staggered start, then a
// think time jittered ±25% between single dispatches, because
// synchronized lookers would arrive in waves that overflow every queue
// at once and make diverts insensitive to the carve.
func (h *harness) look(i int, traffic []*tracegen.Traffic) {
	defer h.lookers.Done()
	rt := h.rts[i%len(h.rts)]
	jit := rand.New(rand.NewSource(h.o.Seed + 7000 + int64(i)))
	pause := pacedThink * time.Duration(i) / time.Duration(h.o.Lookers)
	batch := make([]ip.Addr, 16)
	var out []serve.Result
	for n := 0; ; n++ {
		if h.o.paced {
			select {
			case <-h.stop:
				return
			case <-time.After(pause):
			}
			pause = pacedThink*3/4 + time.Duration(jit.Int63n(int64(pacedThink)/2))
		} else {
			select {
			case <-h.stop:
				return
			default:
			}
		}
		pi := h.phase.Load()
		tr, served := traffic[pi], 1
		var err error
		switch {
		case h.o.paced || n%8 < 6:
			_, err = rt.Dispatch(tr.Next())
		case n%8 == 6:
			rt.Lookup(tr.Next())
		default:
			for j := range batch {
				batch[j] = tr.Next()
			}
			out, err = rt.DispatchBatch(batch, out)
			served = len(batch)
		}
		if err != nil {
			h.dispatchErrs.Add(1)
		}
		h.lookups.Add(int64(served))
		h.phaseLookups[pi].Add(int64(served))
	}
}

// apply submits one commuting window and returns once it is published
// everywhere the program has not cut off — the only place the two
// topologies differ on the update path. Direct: every op through
// Announce/Withdraw, concurrently, each blocking on its snapshot swap.
// Replicated: one collector batch, then every current follower's ack of
// it. The TTF is the writer's own price of a one-op window (what
// Sequential sums).
func (h *harness) apply(window []tracegen.Update) (ttf.TTF, error) {
	if h.coll != nil {
		seq, err := h.coll.Apply(tracegen.Records(window))
		if err != nil {
			return ttf.TTF{}, err
		}
		h.last = seq
		for i, r := range h.reps {
			if r.behind() {
				continue
			}
			if err := r.f.WaitSeq(seq, followerTimeout); err != nil {
				return ttf.TTF{}, fmt.Errorf("replica %d: %w", i, err)
			}
		}
		return ttf.TTF{}, nil
	}
	costs, errs := make([]ttf.TTF, len(window)), make([]error, len(window))
	var wg sync.WaitGroup
	for i, u := range window {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if u.Kind == tracegen.Announce {
				costs[i], errs[i] = h.rts[0].Announce(u.Prefix, u.Hop)
			} else {
				costs[i], errs[i] = h.rts[0].Withdraw(u.Prefix)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return ttf.TTF{}, fmt.Errorf("op +%d (%v %s): %w", i, window[i].Kind, window[i].Prefix, err)
		}
	}
	return costs[0], nil
}

// inject fires one fault. Worker faults hit every serving runtime (the
// target is reduced modulo the worker count); the rest name a replica.
func (h *harness) inject(f tracegen.Fault, rep *Report) error {
	rep.Faults[f.Kind.String()]++
	w := f.Target % h.o.Workers
	each := func(do func(*serve.Runtime) error) error {
		for _, rt := range h.rts {
			if err := do(rt); err != nil {
				return err
			}
		}
		return nil
	}
	switch f.Kind {
	case tracegen.FaultKill:
		return each(func(rt *serve.Runtime) error { return rt.FailWorker(w) })
	case tracegen.FaultPoison:
		return each(func(rt *serve.Runtime) error { return poison(rt, w) })
	case tracegen.FaultStall:
		return each(func(rt *serve.Runtime) error {
			release, err := rt.StallWorker(w)
			if err == nil {
				h.releases = append(h.releases, release)
			}
			return err
		})
	case tracegen.FaultRelease:
		h.releaseWorkers()
		return nil
	case tracegen.FaultRecover:
		return each(func(rt *serve.Runtime) error {
			if err := waitFailed(rt, w); err != nil {
				return err
			}
			return rt.RecoverWorker(w)
		})
	case tracegen.FaultRecut:
		// A forced pass may still refuse a non-improving cut; only a
		// pass that could not run is a fault.
		return each(func(rt *serve.Runtime) error { _, err := rt.Rebalance(true); return err })
	}
	if f.Target < 0 || f.Target >= len(h.reps) {
		return fmt.Errorf("program has %d replicas", len(h.reps))
	}
	r := h.reps[f.Target]
	switch f.Kind {
	case tracegen.FaultCut:
		r.down.Store(true)
		r.f.BreakConn()
	case tracegen.FaultHeal:
		return h.heal(r)
	case tracegen.FaultStallApplier:
		if !r.held {
			r.held = true
			r.gate.hold.Lock()
		}
	case tracegen.FaultReleaseApplier:
		rep.MaxLag = max(rep.MaxLag, h.last-r.f.Stats().LastApplied)
		r.release()
		return r.f.WaitSeq(h.last, followerTimeout)
	case tracegen.FaultRestartCollector:
		// Hand the mirror and head to a successor; followers that kept
		// up resume on it without a snapshot.
		base, head := h.coll.Routes(), h.coll.Head()
		h.coll.Close()
		return h.startCollector(base, head)
	default:
		return fmt.Errorf("unknown fault kind %d", f.Kind)
	}
	return nil
}

// heal brings a cut replica's link back, waits for it to catch up and
// checks it recovered the way the collector's replay log dictates: by
// resuming when its next batch is still replayable, by a fresh snapshot
// when the cut outlasted the window.
func (h *harness) heal(r *replica) error {
	before := r.f.Stats()
	resumable := before.LastApplied+1 >= h.coll.Stats().LogStart
	r.down.Store(false)
	if err := r.f.WaitSeq(h.last, followerTimeout); err != nil {
		return err
	}
	switch after := r.f.Stats(); {
	case !resumable && after.SnapshotLoads == before.SnapshotLoads:
		return fmt.Errorf("missed batches %d..%d past the replay window without re-snapshotting", before.LastApplied+1, h.last)
	case resumable && before.LastApplied < h.last && after.Resumes == before.Resumes:
		return fmt.Errorf("batch %d was still replayable but the follower did not resume", before.LastApplied+1)
	}
	return nil
}

// healAll undoes whatever the program left in force.
func (h *harness) healAll() error {
	h.releaseWorkers()
	for i, r := range h.reps {
		r.release()
		r.down.Store(false)
		if err := r.f.WaitSeq(h.last, followerTimeout); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
	}
	return nil
}

func (h *harness) releaseWorkers() {
	for _, release := range h.releases {
		release()
	}
	h.releases = h.releases[:0]
}

// current lists the runtimes the program has not cut off.
func (h *harness) current() []*serve.Runtime {
	if len(h.reps) == 0 {
		return h.rts
	}
	var out []*serve.Runtime
	for i, r := range h.reps {
		if !r.behind() {
			out = append(out, h.rts[i])
		}
	}
	return out
}

// checkpoint is a quiesce point: every submitted window is published
// (apply blocks on it), and any worker stall still in force releases
// first, or the dispatch probes could block behind the wedged queue that
// only this goroutine can un-wedge. It diffs every current runtime
// against the model's canonical compression: the published table's ONRTC
// disjointness invariant and the whole table route-for-route, then
// sampled route boundaries and random probes through the snapshot path
// and (except under Compare's deliberately overloaded queues) the worker
// dispatch path.
func (h *harness) checkpoint(table *onrtc.Table, rng *rand.Rand) (wrong []error, checked int) {
	h.releaseWorkers()
	for _, rt := range h.current() {
		w, c := checkRuntime(rt, table, rng, h.o.Probes, !h.o.paced)
		wrong, checked = append(wrong, w...), checked+c
	}
	return wrong, checked
}

func checkRuntime(rt *serve.Runtime, table *onrtc.Table, rng *rand.Rand, probes int, dispatch bool) (wrong []error, checked int) {
	snap := rt.Snapshot()
	got, want := snap.Routes(), table.Routes()
	if err := onrtc.VerifyDisjoint(got); err != nil {
		wrong = append(wrong, fmt.Errorf("published table not disjoint: %w", err))
	}
	if len(got) != len(want) {
		wrong = append(wrong, fmt.Errorf("table size %d, oracle %d", len(got), len(want)))
	} else {
		for i := range got {
			if got[i] != want[i] {
				wrong = append(wrong, fmt.Errorf("table[%d] = %v, oracle %v", i, got[i], want[i]))
				break
			}
		}
	}

	probe := func(a ip.Addr, dispatch bool) {
		checked++
		wantHop, _ := table.Lookup(a, nil)
		hop, _, ok := snap.Lookup(a)
		if ok != (wantHop != ip.NoRoute) || (ok && hop != wantHop) {
			wrong = append(wrong, fmt.Errorf("Lookup(%s) = %d/%v, oracle %d", a, hop, ok, wantHop))
			return
		}
		if dispatch {
			res, err := rt.Dispatch(a)
			if err != nil {
				wrong = append(wrong, fmt.Errorf("Dispatch(%s): %v", a, err))
				return
			}
			if res.Found != (wantHop != ip.NoRoute) || (res.Found && res.Hop != wantHop) {
				wrong = append(wrong, fmt.Errorf("Dispatch(%s) = %+v, oracle %d", a, res, wantHop))
			}
		}
	}

	step := 1
	if probes > 0 && len(want) > probes {
		step = len(want) / probes
	}
	for i := 0; i < len(want) && len(wrong) < 8; i += step {
		probe(want[i].Prefix.First(), false)
		probe(want[i].Prefix.Last(), false)
	}
	for i := 0; i < probes && len(wrong) < 8; i++ {
		probe(ip.Addr(rng.Uint32()), dispatch && i%4 == 0)
	}
	return wrong, checked
}

// awaitConvergence polls every current runtime's canonical table hash
// until it matches the oracle expectation, and reports whether all
// matched and how long after the call the last one did.
func (h *harness) awaitConvergence(want uint64, deadline time.Duration) (bool, int64) {
	start := time.Now()
	for _, rt := range h.current() {
		for rt.TableHash() != want {
			if time.Since(start) > deadline {
				return false, time.Since(start).Nanoseconds()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return true, time.Since(start).Nanoseconds()
}

// load sums the dispatch counters over every runtime.
func (h *harness) load() (dispatched, diverted int64) {
	for _, rt := range h.rts {
		st := rt.Stats()
		dispatched, diverted = dispatched+st.Dispatched, diverted+st.Diverted
	}
	return dispatched, diverted
}

// collect fills the report's closing measurements.
func (h *harness) collect(rep *Report) {
	rep.Lookups, rep.DispatchErrors = h.lookups.Load(), h.dispatchErrs.Load()
	var dispatched, diverted int64
	for i, rt := range h.rts {
		st := rt.Stats()
		if i == 0 {
			rep.TableHash = fmt.Sprintf("%016x", st.TableHash)
			rep.FinalRoutes, rep.Rebalance = st.Routes, st.Rebalance
		}
		dispatched, diverted = dispatched+st.Dispatched, diverted+st.Diverted
		rep.Panics += st.WorkerPanics
		rep.Rehomes += st.Rehomes
		rep.PeakRoutes = max(rep.PeakRoutes, st.PeakRoutes)
		rep.DispatchP99Ns = max(rep.DispatchP99Ns, st.Latency.DispatchP99Ns())
	}
	rep.DivertRate = ratio(diverted, dispatched)
	for _, r := range h.reps {
		rep.Followers = append(rep.Followers, r.f.Stats())
	}
}

func (h *harness) stopTraffic() {
	h.stopOnce.Do(func() {
		close(h.stop)
		// A looker may be parked behind a stalled queue.
		h.releaseWorkers()
		h.lookers.Wait()
	})
}

// close tears the topology down, in dependency order: traffic first (a
// looker on a closed runtime would spin on ErrClosed), then every gate
// (a follower blocked in its applier never exits), then followers,
// collector and runtimes. Idempotent.
func (h *harness) close() {
	h.closeOnce.Do(func() {
		h.stopTraffic()
		for _, r := range h.reps {
			r.release()
			if r.f != nil {
				r.f.Close()
			}
		}
		if h.coll != nil {
			h.coll.Close()
		}
		for _, r := range h.reps {
			r.app.Close()
		}
		for _, rt := range h.rts {
			rt.Close()
		}
	})
}

// poison injects a panic request, retrying briefly when the victim's
// queue is momentarily full of looker traffic.
func poison(rt *serve.Runtime, worker int) error {
	var err error
	for attempt := 0; attempt < 200; attempt++ {
		if err = rt.PoisonWorker(worker); err == nil || errors.Is(err, serve.ErrUnknownWorker) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return err
}

// waitFailed blocks until the worker's panic (or drain) has landed it in
// the failed state, so RecoverWorker sees a legal transition.
func waitFailed(rt *serve.Runtime, worker int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rt.WorkerStates()[worker] == serve.WorkerFailed {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("worker %d never reached failed (now %v)", worker, rt.WorkerStates()[worker])
}
