// Package chaos is a deterministic fault-injection and soak harness for
// the serve runtime. It drives a live serve.Runtime with a tracegen
// update storm and concurrent lookup traffic while killing, poisoning,
// stalling and recovering partition workers on a seeded schedule, and
// checkpoints the published table against a fresh onrtc oracle built
// from a mirror trie.
//
// Everything the harness decides — the base FIB, the update trace, the
// fault schedule, the probe addresses — derives from Config.Seed, so a
// failing run replays exactly. Updates are submitted concurrently in
// windows of distinct prefixes: distinct prefixes commute through the
// trie and the disjoint compressed table, so the mirror stays an exact
// oracle no matter how the writer batches a window.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
	"clue/internal/update"
)

// Config parameterises one chaos run. Zero values take soak defaults.
type Config struct {
	// Seed drives every random choice in the run.
	Seed int64
	// Routes is the base FIB size (default 12000).
	Routes int
	// Ops is the update-storm length (default 10000).
	Ops int
	// Workers is the runtime's partition worker count (default 4).
	Workers int
	// Cycles is the number of kill/recover cycles spread over the storm
	// (default 3). Even cycles fail a worker through the operator API,
	// odd cycles poison it so it panics mid-service; every cycle also
	// stalls a different worker's queue for part of the cycle.
	Cycles int
	// Checkpoints is how many times the run quiesces and compares the
	// published table against a fresh oracle (default 10).
	Checkpoints int
	// ProbesPerCheckpoint is the random-lookup count verified against
	// the oracle at each checkpoint, on top of sampled route boundaries
	// (default 2000).
	ProbesPerCheckpoint int
	// Lookers is the number of concurrent lookup goroutines hammering
	// Dispatch/Lookup/DispatchBatch throughout the run (default 4).
	Lookers int
	// Sequential applies the update storm one op at a time instead of in
	// concurrent windows, and additionally verifies that the runtime's
	// TTF accounting matches a replay of the same trace through a fresh
	// onrtc.Updater priced with the same cost model — the model is
	// deterministic, so the totals are exactly reproducible.
	Sequential bool
	// MaxDispatchP99 bounds the runtime's end-to-end dispatch p99
	// (worse of the home/diverted paths) across the whole
	// soak, kill/recover storms included: degraded mode may divert and
	// retry, but a dispatch latency cliff is an invariant violation,
	// not an operating mode. Default 1s — the runtime's own
	// EnqueueTimeout budget; a successful dispatch that took longer
	// than the budget for *failing* means the backoff path wedged.
	// Negative disables the assertion.
	MaxDispatchP99 time.Duration
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Routes == 0 {
		c.Routes = 12000
	}
	if c.Ops == 0 {
		c.Ops = 10000
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Cycles == 0 {
		c.Cycles = 3
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = 10
	}
	if c.ProbesPerCheckpoint == 0 {
		c.ProbesPerCheckpoint = 2000
	}
	if c.Lookers == 0 {
		c.Lookers = 4
	}
	if c.MaxDispatchP99 == 0 {
		c.MaxDispatchP99 = time.Second
	}
	return c
}

// Report is the outcome of a chaos run. A run only counts as passed
// when Run also returned a nil error.
type Report struct {
	Seed        int64 `json:"seed"`
	Ops         int   `json:"ops"`
	Checkpoints int   `json:"checkpoints"`
	// Kills/Poisons/Stalls/Recoveries count injected faults; Panics is
	// the runtime's recovered-panic counter at the end of the run.
	Kills      int   `json:"kills"`
	Poisons    int   `json:"poisons"`
	Stalls     int   `json:"stalls"`
	Recoveries int   `json:"recoveries"`
	Panics     int64 `json:"panics"`
	// Lookups is the concurrent-traffic volume served during the storm;
	// CheckedLookups the oracle-verified probes across checkpoints.
	Lookups        int64 `json:"lookups"`
	CheckedLookups int   `json:"checked_lookups"`
	// DispatchP99Ns is the runtime's end-to-end dispatch p99 (worst
	// outcome path) over the whole soak, degraded windows included;
	// DispatchP99Bounded reports the Config.MaxDispatchP99 assertion ran
	// (and held, if Run returned nil).
	DispatchP99Ns      float64 `json:"dispatch_p99_ns"`
	DispatchP99Bounded bool    `json:"dispatch_p99_bounded"`
	// WrongAnswers and DispatchErrors must both be zero: forwarding
	// never stops and never lies while any worker is alive.
	WrongAnswers   int   `json:"wrong_answers"`
	DispatchErrors int64 `json:"dispatch_errors"`
	UpdateErrors   int   `json:"update_errors"`
	// TTFChecked reports the sequential-mode replay equivalence ran (and
	// passed, if Run returned nil).
	TTFChecked bool `json:"ttf_checked"`
	// GoroutinesBefore/After bracket the run for leak detection.
	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`
	// FinalRoutes is the compressed table size at the end; FinalStats
	// the runtime's closing metrics export.
	FinalRoutes int         `json:"final_routes"`
	FinalStats  serve.Stats `json:"final_stats"`
}

// event kinds on the fault schedule.
const (
	evKill = iota
	evPoison
	evStall
	evRelease
	evRecover
)

type event struct {
	at     int // op index the event fires before
	kind   int
	worker int
}

// windowMax caps a concurrent submission window. Windows only contain
// distinct prefixes, so every op in a window commutes with the others.
const windowMax = 64

// Run executes one chaos soak and reports what happened. The returned
// error is non-nil whenever any invariant broke: a wrong answer against
// the oracle, a dispatch that exhausted its retry/timeout budget, an
// update pipeline error, a TTF replay mismatch or a leaked goroutine.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{Seed: cfg.Seed, Ops: cfg.Ops}

	fib, err := fibgen.Generate(fibgen.Config{Seed: cfg.Seed, Routes: cfg.Routes})
	if err != nil {
		return rep, err
	}
	routes := fib.Routes()
	// The generator churns its own private FIB copy; the mirror is the
	// harness's oracle state and only moves when the runtime accepted
	// the same op.
	// The storm leans toward withdraws and away from brand-new prefixes
	// so the FIB shrinks slightly over the run: TCAM chips are sized with
	// fixed headroom over their initial partition load, and a
	// growth-heavy trace would legitimately overflow a skewed chip —
	// that's the rebalancer's problem, not the failure-handling layer's.
	gen, err := tracegen.NewUpdateGen(trie.FromRoutes(routes), tracegen.UpdateConfig{
		Seed:          cfg.Seed,
		Messages:      cfg.Ops,
		WithdrawFrac:  0.25,
		NewPrefixFrac: 0.15,
	})
	if err != nil {
		return rep, err
	}
	ups := gen.NextN(cfg.Ops)
	mirror := trie.FromRoutes(routes)

	events := schedule(cfg)
	probeRNG := rand.New(rand.NewSource(cfg.Seed + 2))

	rep.GoroutinesBefore = runtime.NumGoroutine()
	rt, err := serve.New(routes, serve.Config{Workers: cfg.Workers})
	if err != nil {
		return rep, err
	}
	closed := false
	defer func() {
		if !closed {
			rt.Close()
		}
	}()

	// Concurrent lookup traffic for the whole storm. Lookers check
	// liveness (no dispatch may fail while a worker is alive), not
	// answers — answer correctness is the quiesced checkpoints' job.
	stop := make(chan struct{})
	var lookerWG sync.WaitGroup
	var lookups, dispatchErrs atomic.Int64
	for i := 0; i < cfg.Lookers; i++ {
		lookerWG.Add(1)
		go func(seed int64) {
			defer lookerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]ip.Addr, 16)
			var out []serve.Result
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				switch n % 4 {
				case 0, 1:
					if _, err := rt.Dispatch(ip.Addr(rng.Uint32())); err != nil {
						dispatchErrs.Add(1)
					}
					lookups.Add(1)
				case 2:
					rt.Lookup(ip.Addr(rng.Uint32()))
					lookups.Add(1)
				case 3:
					for j := range batch {
						batch[j] = ip.Addr(rng.Uint32())
					}
					var berr error
					if out, berr = rt.DispatchBatch(batch, out); berr != nil {
						dispatchErrs.Add(1)
					}
					lookups.Add(int64(len(batch)))
				}
			}
		}(cfg.Seed + 100 + int64(i))
	}

	var ttfSum update.TTF
	var firstWrong error
	var releases []func()
	releaseAll := func() {
		for _, r := range releases {
			r()
		}
		releases = releases[:0]
	}
	defer releaseAll()

	checkEvery := cfg.Ops / cfg.Checkpoints
	if checkEvery == 0 {
		checkEvery = 1
	}
	nextEvent := 0
	idx := 0
	for idx < len(ups) {
		// Fire every fault due at or before this point.
		for nextEvent < len(events) && events[nextEvent].at <= idx {
			ev := events[nextEvent]
			nextEvent++
			switch ev.kind {
			case evKill:
				if err := rt.FailWorker(ev.worker); err != nil {
					return rep, fmt.Errorf("chaos: FailWorker(%d) at op %d: %w", ev.worker, idx, err)
				}
				rep.Kills++
				logf(cfg.Log, "op %6d: failed worker %d", idx, ev.worker)
			case evPoison:
				if err := poison(rt, ev.worker); err != nil {
					return rep, fmt.Errorf("chaos: poison worker %d at op %d: %w", ev.worker, idx, err)
				}
				rep.Poisons++
				logf(cfg.Log, "op %6d: poisoned worker %d", idx, ev.worker)
			case evStall:
				rel, err := rt.StallWorker(ev.worker)
				if err != nil {
					return rep, fmt.Errorf("chaos: StallWorker(%d) at op %d: %w", ev.worker, idx, err)
				}
				releases = append(releases, rel)
				rep.Stalls++
				logf(cfg.Log, "op %6d: stalled worker %d", idx, ev.worker)
			case evRelease:
				releaseAll()
				logf(cfg.Log, "op %6d: released stalls", idx)
			case evRecover:
				if err := waitFailed(rt, ev.worker); err != nil {
					return rep, fmt.Errorf("chaos: at op %d: %w", idx, err)
				}
				if err := rt.RecoverWorker(ev.worker); err != nil {
					return rep, fmt.Errorf("chaos: RecoverWorker(%d) at op %d: %w", ev.worker, idx, err)
				}
				rep.Recoveries++
				logf(cfg.Log, "op %6d: recovered worker %d", idx, ev.worker)
			}
		}

		// A submission window never crosses a fault or checkpoint
		// boundary and never repeats a prefix, so its ops commute.
		limit := idx + windowMax
		if cfg.Sequential {
			limit = idx + 1
		}
		if nextEvent < len(events) && events[nextEvent].at < limit {
			limit = events[nextEvent].at
		}
		if cp := ((idx / checkEvery) + 1) * checkEvery; cp < limit {
			limit = cp
		}
		end := idx
		seen := make(map[ip.Prefix]struct{}, windowMax)
		for end < len(ups) && end < limit {
			if _, dup := seen[ups[end].Prefix]; dup {
				break
			}
			seen[ups[end].Prefix] = struct{}{}
			end++
		}
		if end == idx {
			end = idx + 1 // repeated prefix right at the boundary: single-op window
		}
		window := ups[idx:end]

		if cfg.Sequential {
			ttf, err := applyOne(rt, window[0])
			if err != nil {
				rep.UpdateErrors++
				return rep, fmt.Errorf("chaos: op %d (%v %s): %w", idx, window[0].Kind, window[0].Prefix, err)
			}
			ttfSum = ttfSum.Add(ttf)
			applyMirror(mirror, window[0])
		} else {
			errs := make([]error, len(window))
			var wg sync.WaitGroup
			for i, u := range window {
				wg.Add(1)
				go func(i int, u tracegen.Update) {
					defer wg.Done()
					_, errs[i] = applyOne(rt, u)
				}(i, u)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					rep.UpdateErrors++
					return rep, fmt.Errorf("chaos: op %d (%v %s): %w", idx+i, window[i].Kind, window[i].Prefix, err)
				}
				applyMirror(mirror, window[i])
			}
		}
		idx = end

		if idx%checkEvery == 0 || idx == len(ups) {
			// A checkpoint is a quiesce point: any stall still scheduled
			// must release first, or the dispatch probes (and the main
			// loop with them) could block behind the wedged queue that
			// only this loop can un-wedge.
			releaseAll()
			wrong, checked := checkpoint(rt, mirror, probeRNG, cfg.ProbesPerCheckpoint)
			rep.Checkpoints++
			rep.CheckedLookups += checked
			rep.WrongAnswers += len(wrong)
			if len(wrong) > 0 && firstWrong == nil {
				firstWrong = wrong[0]
			}
			logf(cfg.Log, "op %6d: checkpoint %d — %d probes, %d wrong, %d routes",
				idx, rep.Checkpoints, checked, len(wrong), rt.Snapshot().Len())
		}
	}

	releaseAll()
	close(stop)
	lookerWG.Wait()
	rep.Lookups = lookups.Load()
	rep.DispatchErrors = dispatchErrs.Load()
	st := rt.Stats()
	rep.Panics = st.WorkerPanics
	rep.FinalRoutes = rt.Snapshot().Len()
	rep.FinalStats = st
	rep.DispatchP99Ns = st.Latency.DispatchP99Ns()
	rep.DispatchP99Bounded = cfg.MaxDispatchP99 > 0

	if cfg.Sequential {
		if err := checkTTFReplay(routes, ups, ttfSum, st.TTFTotals); err != nil {
			return rep, err
		}
		rep.TTFChecked = true
	}

	rt.Close()
	closed = true
	rep.GoroutinesAfter = awaitGoroutines(rep.GoroutinesBefore)

	switch {
	case rep.WrongAnswers > 0:
		return rep, fmt.Errorf("chaos: %d wrong answers vs oracle (first: %w)", rep.WrongAnswers, firstWrong)
	case rep.DispatchErrors > 0:
		return rep, fmt.Errorf("chaos: %d dispatches failed their retry/timeout budget", rep.DispatchErrors)
	case rep.DispatchP99Bounded && rep.DispatchP99Ns > float64(cfg.MaxDispatchP99.Nanoseconds()):
		return rep, fmt.Errorf("chaos: dispatch p99 %.0fns exceeds the degraded-mode bound %v (home %.0fns, diverted %.0fns)",
			rep.DispatchP99Ns, cfg.MaxDispatchP99,
			st.Latency.DispatchHome.P99, st.Latency.DispatchDiverted.P99)
	case rep.GoroutinesAfter > rep.GoroutinesBefore:
		return rep, fmt.Errorf("chaos: goroutine leak: %d before, %d after close", rep.GoroutinesBefore, rep.GoroutinesAfter)
	}
	return rep, nil
}

// schedule lays the fault events over the op space: per cycle one worker
// goes down (operator fail on even cycles, panic on odd), a different
// worker's queue stalls mid-cycle and releases, and the down worker
// recovers at three quarters.
func schedule(cfg Config) []event {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	cycleLen := cfg.Ops / cfg.Cycles
	if cycleLen < 4 {
		cycleLen = 4
	}
	var events []event
	for c := 0; c < cfg.Cycles; c++ {
		base := c * cycleLen
		if base+cycleLen > cfg.Ops {
			break
		}
		victim := rng.Intn(cfg.Workers)
		kind := evKill
		if c%2 == 1 {
			kind = evPoison
		}
		events = append(events,
			event{base + cycleLen/4, kind, victim},
			event{base + cycleLen/2, evStall, (victim + 1) % cfg.Workers},
			event{base + cycleLen*5/8, evRelease, 0},
			event{base + cycleLen*3/4, evRecover, victim},
		)
	}
	return events
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
	return fmt.Errorf("chaos: worker %d never reached failed (now %v)", worker, rt.WorkerStates()[worker])
}

func applyOne(rt *serve.Runtime, u tracegen.Update) (update.TTF, error) {
	switch u.Kind {
	case tracegen.Announce:
		return rt.Announce(u.Prefix, u.Hop)
	case tracegen.Withdraw:
		return rt.Withdraw(u.Prefix)
	}
	return update.TTF{}, fmt.Errorf("chaos: unknown update kind %v", u.Kind)
}

func applyMirror(mirror *trie.Trie, u tracegen.Update) {
	switch u.Kind {
	case tracegen.Announce:
		mirror.Insert(u.Prefix, u.Hop, nil)
	case tracegen.Withdraw:
		mirror.Delete(u.Prefix, nil)
	}
}

// checkpoint quiesces (every submitted op is published — Announce and
// Withdraw block until their snapshot swap) and compares the runtime
// against a fresh compression of the mirror: first the published
// table's ONRTC disjointness invariant and the whole table
// route-for-route, then sampled route boundaries and random probes
// through both the snapshot path and the worker dispatch path.
func checkpoint(rt *serve.Runtime, mirror *trie.Trie, rng *rand.Rand, probes int) (wrong []error, checked int) {
	oracle := onrtc.Compress(mirror)
	snap := rt.Snapshot()
	got, want := snap.Routes(), oracle.Routes()
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
		wantHop, _ := oracle.Lookup(a, nil)
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
		probe(ip.Addr(rng.Uint32()), i%4 == 0)
	}
	return wrong, checked
}

// replayTTF runs the op sequence through a fresh onrtc.Updater and sums
// the cost model's price of every diff — what a writer that applies
// exactly these ops in exactly this order must have accounted.
func replayTTF(routes []ip.Route, ups []tracegen.Update) (update.TTF, error) {
	upd := onrtc.BuildUpdater(trie.FromRoutes(routes))
	costs := update.DefaultCosts()
	var sum update.TTF
	for _, u := range ups {
		var diff onrtc.Diff
		switch u.Kind {
		case tracegen.Announce:
			diff = upd.Announce(u.Prefix, u.Hop)
		case tracegen.Withdraw:
			diff = upd.Withdraw(u.Prefix)
		default:
			return update.TTF{}, fmt.Errorf("chaos: ttf replay: unknown update kind %v", u.Kind)
		}
		sum = sum.Add(costs.CLUEBound(diff))
	}
	return sum, nil
}

// checkTTFReplay demands the runtime's TTF totals equal replayTTF's over
// the identical op sequence — the model is deterministic, so any drift
// means the writer dropped, duplicated or reordered an op.
func checkTTFReplay(routes []ip.Route, ups []tracegen.Update, got update.TTF, stats update.TTF) error {
	want, err := replayTTF(routes, ups)
	if err != nil {
		return err
	}
	for _, pair := range []struct {
		name      string
		got, want update.TTF
	}{
		{"returned", got, want},
		{"stats", stats, want},
	} {
		if !ttfClose(pair.got, pair.want) {
			return fmt.Errorf("chaos: %s TTF totals %+v != replay %+v", pair.name, pair.got, pair.want)
		}
	}
	return nil
}

func ttfClose(a, b update.TTF) bool {
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-6*(1+math.Abs(y))
	}
	return close(a.Trie, b.Trie) && close(a.TCAM, b.TCAM) && close(a.DRed, b.DRed)
}

// awaitGoroutines waits for the goroutine count to drop back to the
// pre-run level and returns the settled count.
func awaitGoroutines(before int) int {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n := runtime.NumGoroutine(); n <= before {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
