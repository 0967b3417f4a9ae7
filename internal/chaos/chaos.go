// Package chaos is the fault harness: one driver that replays a
// tracegen scenario program — phased update streams, per-phase lookup
// traffic and a per-phase fault list — against live serve runtimes,
// checkpoints every serving runtime against the brute-force oracle model
// mid-program, measures time-to-converge after the storm and holds the
// run to the program's declared contract.
//
// A program with Replicas == 0 applies its updates straight to one
// runtime; with Replicas == N they go through a feed.Collector to N
// follower runtimes. That is the only topology seam (harness.apply);
// the traffic loop, the window submitter, the reference, the
// checkpoint, the contract, the report and the reproducer are shared.
//
// Everything the harness decides derives from Options.Seed, so a failing
// run replays exactly. Updates are submitted in windows of distinct
// prefixes: distinct prefixes commute through the trie and the disjoint
// compressed table, so the model stays an exact oracle no matter how the
// writer batches a window. The reference is oracle.Model, the flat
// brute-force LPM map the differential-testing layer uses, so a planted
// model mutant makes a mid-program checkpoint fail — on every program —
// proving the harness detects real divergence rather than vacuously
// passing.
package chaos

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"clue/internal/feed"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/oracle"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
	"clue/internal/ttf"
)

// Options parameterises one run. Zero values take the named program's
// preset defaults; an explicit value is always honoured.
type Options struct {
	// Scenario is the program to run (tracegen.ScenarioNames).
	Scenario string `json:"scenario"`
	// Seed drives the generated program, the probe addresses and the
	// lookup traffic.
	Seed int64 `json:"seed"`
	// Routes is the base FIB size (default 12000; 3000 for
	// feed-partition, 4000 under Compare).
	Routes int `json:"routes"`
	// StormOps sizes the storm where the program draws it from the churn
	// generator (0 = the program's own default).
	StormOps int `json:"storm_ops,omitempty"`
	// Workers is each runtime's partition worker count (default 4; 2 for
	// feed-partition).
	Workers int `json:"workers"`
	// Lookers is the number of concurrent traffic goroutines, each
	// following the phase's declared traffic spec (default 4; 120 paced
	// ones under Compare).
	Lookers int `json:"lookers"`
	// Checkpoints is how many times per phase the driver quiesces and
	// diffs every serving runtime against the oracle model (default 3;
	// every phase also ends with one).
	Checkpoints int `json:"checkpoints"`
	// Probes is the random-probe count verified per checkpoint and
	// runtime, on top of sampled route boundaries (default 800).
	Probes int `json:"probes"`
	// MaxDegradedP99/MaxDivertRate/MaxConverge override the program's
	// contract: zero keeps the declared bound, negative disables it.
	MaxDegradedP99 time.Duration `json:"max_degraded_p99,omitempty"`
	MaxDivertRate  float64       `json:"max_divert_rate,omitempty"`
	MaxConverge    time.Duration `json:"max_converge,omitempty"`
	// Sequential applies updates one at a time instead of in concurrent
	// windows and additionally demands that the runtime's TTF accounting
	// equals a replay of the same trace through a fresh onrtc.Updater
	// under the same cost model — the model is deterministic, so any
	// drift means the writer dropped, duplicated or reordered an op.
	// Direct topology only.
	Sequential bool `json:"sequential,omitempty"`
	// Mutant plants a deliberate defect in the oracle model. The
	// self-tests use it to prove a checkpoint catches real divergence;
	// production runs use oracle.MutantNone.
	Mutant oracle.Mutant `json:"mutant,omitempty"`
	// Log, when non-nil, receives progress lines.
	Log io.Writer `json:"-"`
	// ReproDir, when non-empty, receives a shrunk JSON reproducer when
	// the run fails.
	ReproDir string `json:"-"`

	// paced selects Compare's capacity model (see compare.go); rebalance
	// turns the repartitioning controller on for its second leg.
	paced, rebalance bool
}

// Driver constants: every value here had exactly one caller.
const (
	// windowMax caps a concurrent submission window.
	windowMax = 64
	// The replicated topology: updates per collector batch, the
	// collector's replay window in batches (small, so tracegen's long cut
	// is guaranteed to overrun it) and its hash-frame cadence.
	feedBatch     = 4
	feedWindow    = 16
	feedHashEvery = 8
	// followerTimeout bounds every wait on a follower's progress.
	followerTimeout = 30 * time.Second
)

func (o Options) withDefaults() Options {
	routes, workers, lookers := 12000, 4, 4
	switch {
	case o.paced:
		routes, lookers = 4000, pacedLookers
	case o.Scenario == tracegen.ScenarioFeedPartition:
		routes, workers = 3000, 2
	}
	for _, d := range []struct {
		v   *int
		def int
	}{{&o.Routes, routes}, {&o.Workers, workers}, {&o.Lookers, lookers}, {&o.Checkpoints, 3}, {&o.Probes, 800}} {
		if *d.v == 0 {
			*d.v = d.def
		}
	}
	return o
}

// Validate rejects options no run could honour: an unknown program, a
// negative size or a contradictory bound. Run calls it; clue-chaos calls
// it first to tell a usage error from a failed run.
func (o Options) Validate() error {
	if !slices.Contains(tracegen.ScenarioNames(), o.Scenario) {
		return fmt.Errorf("chaos: unknown scenario %q (known: %v)", o.Scenario, tracegen.ScenarioNames())
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Routes", o.Routes}, {"StormOps", o.StormOps}, {"Workers", o.Workers},
		{"Lookers", o.Lookers}, {"Checkpoints", o.Checkpoints}, {"Probes", o.Probes}} {
		if f.v < 0 {
			return fmt.Errorf("chaos: %s must be >= 0 (0 means the preset default), got %d", f.name, f.v)
		}
	}
	if o.MaxDivertRate > 1 {
		return fmt.Errorf("chaos: MaxDivertRate %v is a contradiction: diverted/dispatched can never exceed 1", o.MaxDivertRate)
	}
	if o.Sequential && o.Scenario == tracegen.ScenarioFeedPartition {
		return errors.New("chaos: Sequential checks one writer's TTF accounting; feed-partition replicates")
	}
	return nil
}

// bound resolves one contract bound: the declared value unless the
// option overrides (positive) or disables (negative) it.
func bound[T time.Duration | float64](declared, override T) T {
	switch {
	case override < 0:
		return 0
	case override > 0:
		return override
	}
	return declared
}

// PhaseReport is the per-phase slice of a run.
type PhaseReport struct {
	Name        string  `json:"name"`
	Storm       bool    `json:"storm"`
	Ops         int     `json:"ops"`
	Checkpoints int     `json:"checkpoints"`
	Lookups     int64   `json:"lookups"`
	DivertRate  float64 `json:"divert_rate"`
	RoutesAfter int     `json:"routes_after"`
}

// Report is the machine-readable outcome of a run (clue-chaos emits it
// as JSON). A run only counts as passed when Run also returned nil.
type Report struct {
	Scenario string                    `json:"scenario"`
	Seed     int64                     `json:"seed"`
	Routes   int                       `json:"routes"`
	Workers  int                       `json:"workers"`
	Replicas int                       `json:"replicas"`
	Mutant   string                    `json:"mutant"`
	Contract tracegen.ScenarioContract `json:"contract"`
	Phases   []PhaseReport             `json:"phases"`

	// Faults counts injected faults by kind name (tracegen.FaultKind);
	// Panics and Rehomes are the runtimes' recovered-panic and
	// health-recut counters at the end of the run.
	Faults  map[string]int `json:"faults"`
	Panics  int64          `json:"panics"`
	Rehomes int64          `json:"rehomes"`

	// Ops is the program's update count. Lookups is the concurrent
	// traffic volume; CheckedLookups the oracle-verified probes across
	// checkpoints. WrongAnswers and UpdateErrors end the run where they
	// occur; DispatchErrors fail it at the end: forwarding never stops
	// and never lies while any worker is alive.
	Ops            int   `json:"ops"`
	Checkpoints    int   `json:"checkpoints"`
	CheckedLookups int   `json:"checked_lookups"`
	WrongAnswers   int   `json:"wrong_answers"`
	Lookups        int64 `json:"lookups"`
	DispatchErrors int64 `json:"dispatch_errors"`
	UpdateErrors   int   `json:"update_errors"`

	// DispatchP99Ns is the whole-run end-to-end dispatch p99 (worst
	// outcome path, worst runtime), faults and storm included — the
	// contract's "degraded-mode" latency. DivertRate is
	// diverted/dispatched over the whole run; StormDivertRate the same
	// ratio inside the storm phase alone. The Steady fields are Compare's
	// measurement window — its length, its dispatch count and its
	// diverted/dispatched — and stay zero on unpaced runs.
	DispatchP99Ns    float64 `json:"dispatch_p99_ns"`
	DivertRate       float64 `json:"divert_rate"`
	StormDivertRate  float64 `json:"storm_divert_rate"`
	SteadyNs         int64   `json:"steady_ns,omitempty"`
	SteadyDispatches int64   `json:"steady_dispatches,omitempty"`
	SteadyDivertRate float64 `json:"steady_divert_rate,omitempty"`

	// Converged reports every current runtime's canonical table hash
	// matched the oracle's expectation after the storm; ConvergeNs is the
	// gap between the last storm update completing and the last match.
	Converged  bool   `json:"converged"`
	ConvergeNs int64  `json:"converge_ns"`
	TableHash  string `json:"table_hash"`
	// TTFChecked reports the Sequential replay equivalence ran (and
	// held, if Run returned nil).
	TTFChecked bool `json:"ttf_checked"`

	PeakRoutes       int64 `json:"peak_routes"`
	FinalRoutes      int   `json:"final_routes"`
	GoroutinesBefore int   `json:"goroutines_before"`
	GoroutinesAfter  int   `json:"goroutines_after"`

	// Rebalance carries the first runtime's repartitioning counters.
	Rebalance serve.RebalanceStats `json:"rebalance"`
	// Followers is each replica's closing feed statistics; MaxLag the
	// worst batch lag seen while a replica's apply pipeline was stalled.
	Followers []feed.FollowerStats `json:"followers,omitempty"`
	MaxLag    uint64               `json:"max_lag,omitempty"`
}

// Run generates the named program and replays it. The returned error is
// non-nil whenever an invariant broke (a wrong answer against the oracle
// at a checkpoint, a failed dispatch or update, a fault that could not
// be injected, a recovery that took the wrong path, a TTF replay
// mismatch, a goroutine leak) or the effective contract did not hold
// (dispatch p99 cliff, divert-rate overrun, convergence timeout).
func Run(o Options) (Report, error) {
	if err := o.Validate(); err != nil {
		return Report{Scenario: o.Scenario, Seed: o.Seed}, err
	}
	o = o.withDefaults()
	rep, err := generateAndRun(o)
	if err != nil && o.ReproDir != "" {
		writeReproducer(o, rep, err)
	}
	return rep, err
}

func generateAndRun(o Options) (Report, error) {
	sc, err := tracegen.GenScenario(o.Scenario, tracegen.ScenarioConfig{Seed: o.Seed, Routes: o.Routes, StormOps: o.StormOps})
	if err != nil {
		return Report{Scenario: o.Scenario, Seed: o.Seed}, err
	}
	return run(o, sc)
}

// run replays one program. Every early return leaves teardown — stop
// the traffic, release every stall, close followers, collector and
// runtimes, in that order — to the one deferred h.close.
func run(o Options, sc *tracegen.Scenario) (Report, error) {
	contract := tracegen.ScenarioContract{
		MaxDegradedP99: bound(sc.Contract.MaxDegradedP99, o.MaxDegradedP99),
		MaxDivertRate:  bound(sc.Contract.MaxDivertRate, o.MaxDivertRate),
		MaxConverge:    bound(sc.Contract.MaxConverge, o.MaxConverge),
	}
	rep := Report{
		Scenario: sc.Name, Seed: o.Seed, Routes: len(sc.Base), Workers: o.Workers, Replicas: sc.Replicas,
		Mutant: o.Mutant.String(), Contract: contract, Ops: sc.Ops(), Faults: map[string]int{},
	}
	fail := func(format string, args ...any) (Report, error) {
		return rep, fmt.Errorf("chaos: scenario %s: "+format, append([]any{sc.Name}, args...)...)
	}

	rep.GoroutinesBefore = runtime.NumGoroutine()
	h, err := boot(o, sc)
	if err != nil {
		return fail("%w", err)
	}
	defer h.close()

	model := oracle.NewModel(sc.Base, o.Mutant)
	probeRNG := rand.New(rand.NewSource(o.Seed + 3))
	var ttfSum ttf.TTF
	si := sc.StormPhase()
	// A window is at most one collector batch when replicated, one op
	// when Sequential sums per-op TTFs.
	windowCap := windowMax
	switch {
	case sc.Replicas > 0:
		windowCap = feedBatch
	case o.Sequential:
		windowCap = 1
	}
	for pi, ph := range sc.Phases {
		h.phase.Store(int32(pi))
		disp0, div0 := h.load()
		pr := PhaseReport{Name: ph.Name, Storm: ph.Storm, Ops: len(ph.Updates)}
		// checkpoint quiesces and diffs every current runtime against the
		// canonical compression of the model, rebuilt each time so a model
		// mutant (deliberate or real divergence) surfaces mid-program; a
		// wrong answer ends the run there.
		var table *onrtc.Table
		checkpoint := func(idx int) error {
			table = onrtc.Compress(trie.FromRoutes(model.Routes()))
			wrong, checked := h.checkpoint(table, probeRNG)
			rep.Checkpoints++
			pr.Checkpoints++
			rep.CheckedLookups += checked
			rep.WrongAnswers += len(wrong)
			o.logf("scenario %s: phase %s op %6d/%d — checkpoint %d, %d probes, %d wrong, %d routes",
				sc.Name, ph.Name, idx, len(ph.Updates), rep.Checkpoints, checked, len(wrong), h.rts[0].Snapshot().Len())
			if len(wrong) > 0 {
				return fmt.Errorf("%d wrong answers vs oracle at phase %s op %d (first: %w)", len(wrong), ph.Name, idx, wrong[0])
			}
			return nil
		}

		cpEvery := max(1, (len(ph.Updates)+o.Checkpoints-1)/o.Checkpoints)
		faults := ph.Faults
		for idx := 0; ; {
			for len(faults) > 0 && (faults[0].At <= idx || idx == len(ph.Updates)) {
				if err := h.inject(faults[0], &rep); err != nil {
					return fail("phase %s op %d: fault %s(%d): %w", ph.Name, idx, faults[0].Kind, faults[0].Target, err)
				}
				o.logf("scenario %s: phase %s op %6d — %s(%d)", sc.Name, ph.Name, idx, faults[0].Kind, faults[0].Target)
				faults = faults[1:]
			}
			if idx == len(ph.Updates) {
				break
			}
			// A submission window never crosses a fault or checkpoint
			// boundary and never repeats a prefix, so its ops commute.
			limit := min(idx+windowCap, (idx/cpEvery+1)*cpEvery, len(ph.Updates))
			if len(faults) > 0 {
				limit = min(limit, faults[0].At)
			}
			end := idx + 1
			seen := map[ip.Prefix]struct{}{ph.Updates[idx].Prefix: {}}
			for ; end < limit; end++ {
				if _, dup := seen[ph.Updates[end].Prefix]; dup {
					break
				}
				seen[ph.Updates[end].Prefix] = struct{}{}
			}
			window := ph.Updates[idx:end]
			cost, err := h.apply(window)
			if err != nil {
				rep.UpdateErrors++
				return fail("phase %s window at op %d: %w", ph.Name, idx, err)
			}
			if o.Sequential {
				ttfSum = ttfSum.Add(cost)
			}
			for _, u := range window {
				if u.Kind == tracegen.Announce {
					model.Announce(u.Prefix, u.Hop)
				} else {
					model.Withdraw(u.Prefix)
				}
			}
			idx = end
			if idx%cpEvery == 0 && idx < len(ph.Updates) {
				if err := checkpoint(idx); err != nil {
					return fail("%w", err)
				}
			}
		}
		if pi == len(sc.Phases)-1 {
			// The program is over: whatever it left cut or stalled heals,
			// so its closing checkpoint covers every runtime.
			if err := h.healAll(); err != nil {
				return fail("final heal: %w", err)
			}
		}
		if err := checkpoint(len(ph.Updates)); err != nil {
			return fail("%w", err)
		}

		if pi == si {
			// The convergence clock starts once the storm's last update is
			// accepted and checked; the expected hash is the closing
			// checkpoint's table, digested by the feed wire-format hash
			// (independent of serve's implementation).
			want := feed.CanonicalHash(table.Routes())
			rep.Converged, rep.ConvergeNs = h.awaitConvergence(want, cmp.Or(contract.MaxConverge, 10*time.Second))
			o.logf("scenario %s: storm done — converged=%v in %s (hash %016x)",
				sc.Name, rep.Converged, time.Duration(rep.ConvergeNs), want)
			if !rep.Converged {
				return fail("table never converged to oracle hash %016x within %v", want, contract.MaxConverge)
			}
		}
		if o.paced {
			h.hold(pi, si, &rep)
		}

		disp1, div1 := h.load()
		pr.Lookups = h.phaseLookups[pi].Load()
		pr.DivertRate = ratio(div1-div0, disp1-disp0)
		pr.RoutesAfter = h.rts[0].Snapshot().Len()
		rep.Phases = append(rep.Phases, pr)
		if pi == si {
			rep.StormDivertRate = pr.DivertRate
		}
	}

	h.stopTraffic()
	h.collect(&rep)
	if o.Sequential {
		var ups []tracegen.Update
		for _, ph := range sc.Phases {
			ups = append(ups, ph.Updates...)
		}
		if err := checkTTFReplay(sc.Base, ups, ttfSum, h.rts[0].Stats().TTFTotals); err != nil {
			return fail("%w", err)
		}
		rep.TTFChecked = true
	}
	h.close()
	rep.GoroutinesAfter = awaitGoroutines(rep.GoroutinesBefore)

	var hashChecks, hashMismatches uint64
	for _, f := range rep.Followers {
		hashChecks += f.HashChecks
		hashMismatches += f.HashMismatches
	}
	switch {
	// Under Compare's deliberate overload a few dispatches legitimately
	// exhaust their budget.
	case rep.DispatchErrors > 0 && !o.paced:
		return fail("%d dispatches failed their retry/timeout budget", rep.DispatchErrors)
	case contract.MaxConverge > 0 && rep.ConvergeNs > contract.MaxConverge.Nanoseconds():
		return fail("time-to-converge %v exceeds the contract bound %v", time.Duration(rep.ConvergeNs), contract.MaxConverge)
	case contract.MaxDegradedP99 > 0 && rep.DispatchP99Ns > float64(contract.MaxDegradedP99.Nanoseconds()):
		return fail("dispatch p99 %.0fns exceeds the contract bound %v", rep.DispatchP99Ns, contract.MaxDegradedP99)
	case contract.MaxDivertRate > 0 && rep.DivertRate > contract.MaxDivertRate:
		return fail("divert rate %.3f exceeds the contract bound %.3f (storm-window rate %.3f)",
			rep.DivertRate, contract.MaxDivertRate, rep.StormDivertRate)
	case sc.Replicas > 0 && hashChecks == 0:
		return fail("no feed hash verifications ran")
	case hashMismatches != 0:
		return fail("%d feed hash mismatches (replicas drifted mid-stream)", hashMismatches)
	case rep.GoroutinesAfter > rep.GoroutinesBefore:
		return fail("goroutine leak: %d before, %d after close", rep.GoroutinesBefore, rep.GoroutinesAfter)
	}
	return rep, nil
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
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

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}
