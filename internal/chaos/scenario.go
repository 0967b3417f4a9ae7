package chaos

// Scenario driver: replays the adversarial control-plane programs from
// internal/tracegen (session-reset, route-leak, update-burst,
// flash-crowd) against a live serve.Runtime under phase-shaped lookup
// traffic, checkpoints the published table against the brute-force
// oracle model *mid-storm*, measures time-to-converge after the storm,
// and holds the run to the scenario's declared quantitative contract.
//
// The oracle here is intentionally not the mirror trie the soak harness
// uses: it is oracle.Model, the flat brute-force LPM map, so the
// scenario lab and the differential-testing layer share one source of
// truth — and so a planted model mutant (oracle.MutantDropWithdraw)
// makes a storm checkpoint fail, proving the lab detects real
// divergence rather than vacuously passing.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clue/internal/feed"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/oracle"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

// ScenarioConfig parameterises one scenario run. Zero values take
// driver defaults; the contract bounds default to the scenario's own
// declaration (negative disables an individual bound).
type ScenarioConfig struct {
	// Name is the scenario to run (tracegen.ScenarioNames).
	Name string `json:"name"`
	// Seed drives the generated program, the probe addresses and the
	// lookup traffic.
	Seed int64 `json:"seed"`
	// Routes is the base FIB size (0 = the generator default, 12000).
	Routes int `json:"routes"`
	// StormOps overrides the generated storm size where the scenario
	// draws from the churn generator (update-burst, flash-crowd).
	StormOps int `json:"storm_ops,omitempty"`
	// Workers is the runtime's partition worker count (default 4).
	Workers int `json:"workers"`
	// Lookers is the number of concurrent traffic goroutines (default 4).
	// Each looker follows the phase's declared traffic spec.
	Lookers int `json:"lookers"`
	// CheckpointsPerPhase is how many times per phase the driver
	// quiesces and diffs the published table against the oracle model
	// (default 3; every phase also ends with a checkpoint).
	CheckpointsPerPhase int `json:"checkpoints_per_phase"`
	// Probes is the random-probe count verified per checkpoint (default
	// 800, on top of sampled route boundaries).
	Probes int `json:"probes"`
	// MaxDegradedP99/MaxDivertRate/MaxConverge override the scenario
	// contract: zero keeps the scenario's declared bound, negative
	// disables that assertion.
	MaxDegradedP99 time.Duration `json:"max_degraded_p99,omitempty"`
	MaxDivertRate  float64       `json:"max_divert_rate,omitempty"`
	MaxConverge    time.Duration `json:"max_converge,omitempty"`
	// Rebalance enables the runtime's load-aware repartitioning
	// controller for the run (zero value = off, the static even carve).
	Rebalance serve.RebalanceConfig `json:"rebalance,omitempty"`
	// Mutant plants a deliberate defect in the oracle model. The
	// self-tests use it to prove a storm checkpoint catches real
	// divergence; production runs use oracle.MutantNone.
	Mutant oracle.Mutant `json:"mutant,omitempty"`
	// Log, when non-nil, receives progress lines.
	Log io.Writer `json:"-"`
	// ReproDir, when non-empty, receives a shrunk JSON reproducer when
	// the run fails.
	ReproDir string `json:"-"`
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Lookers == 0 {
		c.Lookers = 4
	}
	if c.CheckpointsPerPhase == 0 {
		c.CheckpointsPerPhase = 3
	}
	if c.Probes == 0 {
		c.Probes = 800
	}
	return c
}

// contract resolves the effective bounds: scenario defaults with
// config overrides applied (negative override = bound disabled).
func (c ScenarioConfig) contract(sc *tracegen.Scenario) tracegen.ScenarioContract {
	eff := sc.Contract
	switch {
	case c.MaxDegradedP99 < 0:
		eff.MaxDegradedP99 = 0
	case c.MaxDegradedP99 > 0:
		eff.MaxDegradedP99 = c.MaxDegradedP99
	}
	switch {
	case c.MaxDivertRate < 0:
		eff.MaxDivertRate = 0
	case c.MaxDivertRate > 0:
		eff.MaxDivertRate = c.MaxDivertRate
	}
	switch {
	case c.MaxConverge < 0:
		eff.MaxConverge = 0
	case c.MaxConverge > 0:
		eff.MaxConverge = c.MaxConverge
	}
	return eff
}

// PhaseReport is the per-phase slice of a scenario run.
type PhaseReport struct {
	Name        string  `json:"name"`
	Storm       bool    `json:"storm"`
	Ops         int     `json:"ops"`
	Checkpoints int     `json:"checkpoints"`
	Lookups     int64   `json:"lookups"`
	DivertRate  float64 `json:"divert_rate"`
	RoutesAfter int     `json:"routes_after"`
}

// ScenarioReport is the machine-readable outcome of a scenario run
// (clue-chaos -scenario emits it as JSON). A run only counts as passed
// when RunScenario also returned a nil error.
type ScenarioReport struct {
	Scenario string                    `json:"scenario"`
	Seed     int64                     `json:"seed"`
	Routes   int                       `json:"routes"`
	Mutant   string                    `json:"mutant"`
	Contract tracegen.ScenarioContract `json:"contract"`
	Phases   []PhaseReport             `json:"phases"`

	Ops            int   `json:"ops"`
	Checkpoints    int   `json:"checkpoints"`
	CheckedLookups int   `json:"checked_lookups"`
	WrongAnswers   int   `json:"wrong_answers"`
	Lookups        int64 `json:"lookups"`
	DispatchErrors int64 `json:"dispatch_errors"`
	UpdateErrors   int   `json:"update_errors"`

	// DispatchP99Ns is the whole-run end-to-end dispatch p99 (worst
	// outcome path), storm included — the contract's "degraded-mode"
	// latency. DivertRate is diverted/dispatched over the whole run;
	// StormDivertRate the same ratio inside the storm phase alone.
	DispatchP99Ns   float64 `json:"dispatch_p99_ns"`
	DivertRate      float64 `json:"divert_rate"`
	StormDivertRate float64 `json:"storm_divert_rate"`

	// Converged reports the published table's canonical hash matched
	// the oracle's expected hash after the storm; ConvergeNs is the gap
	// between the last storm update completing and the first match.
	Converged  bool   `json:"converged"`
	ConvergeNs int64  `json:"converge_ns"`
	TableHash  string `json:"table_hash"`

	PeakRoutes       int64 `json:"peak_routes"`
	FinalRoutes      int   `json:"final_routes"`
	GoroutinesBefore int   `json:"goroutines_before"`
	GoroutinesAfter  int   `json:"goroutines_after"`

	// Rebalance carries the runtime's repartitioning counters (all zero
	// when the controller was off).
	Rebalance serve.RebalanceStats `json:"rebalance"`
}

// RunScenario generates the named scenario program and replays it. The
// returned error is non-nil whenever an invariant broke (wrong answer
// vs the oracle mid-storm, failed dispatch, update error, goroutine
// leak) or the effective contract did not hold (dispatch p99 cliff,
// divert-rate overrun, convergence timeout).
func RunScenario(cfg ScenarioConfig) (ScenarioReport, error) {
	cfg = cfg.withDefaults()
	rep, err := runScenario(cfg)
	if err != nil && cfg.ReproDir != "" {
		writeReproducer(cfg, rep, err)
	}
	return rep, err
}

func runScenario(cfg ScenarioConfig) (ScenarioReport, error) {
	sc, err := tracegen.GenScenario(cfg.Name, tracegen.ScenarioConfig{
		Seed:     cfg.Seed,
		Routes:   cfg.Routes,
		StormOps: cfg.StormOps,
	})
	if err != nil {
		return ScenarioReport{Scenario: cfg.Name, Seed: cfg.Seed}, err
	}
	contract := cfg.contract(sc)
	rep := ScenarioReport{
		Scenario: cfg.Name,
		Seed:     cfg.Seed,
		Routes:   len(sc.Base),
		Mutant:   cfg.Mutant.String(),
		Contract: contract,
		Ops:      sc.Ops(),
	}

	model := oracle.NewModel(sc.Base, cfg.Mutant)
	probeRNG := rand.New(rand.NewSource(cfg.Seed + 3))

	rep.GoroutinesBefore = runtime.NumGoroutine()
	rt, err := serve.New(sc.Base, serve.Config{Workers: cfg.Workers, Rebalance: cfg.Rebalance})
	if err != nil {
		return rep, err
	}
	closed := false
	defer func() {
		if !closed {
			rt.Close()
		}
	}()

	// Lookers follow the phase's declared traffic spec. Each looker
	// keeps one Traffic generator per phase, all built from the same
	// per-looker seed, so flash-crowd's Invert really is the same
	// popularity ranking reversed — the home carve warmed up on the
	// straight ranking faces its mirror image.
	population := tracegen.PrefixesFromRoutes(sc.Base)
	var phaseIdx atomic.Int32
	phaseLookups := make([]atomic.Int64, len(sc.Phases))
	stop := make(chan struct{})
	var lookerWG sync.WaitGroup
	var lookups, dispatchErrs atomic.Int64
	for i := 0; i < cfg.Lookers; i++ {
		traffics := make([]*tracegen.Traffic, len(sc.Phases))
		for pi, ph := range sc.Phases {
			tr, terr := tracegen.NewTraffic(population, tracegen.TrafficConfig{
				Seed:   cfg.Seed + 1000 + int64(i),
				ZipfS:  ph.Traffic.ZipfS,
				Repeat: ph.Traffic.Repeat,
				Invert: ph.Traffic.Invert,
			})
			if terr != nil {
				return rep, fmt.Errorf("chaos: scenario traffic: %w", terr)
			}
			traffics[pi] = tr
		}
		lookerWG.Add(1)
		go func() {
			defer lookerWG.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				pi := int(phaseIdx.Load())
				addr := traffics[pi].Next()
				// Mostly the dispatch path — that is where diversion,
				// caching and degraded mode live — with a snapshot
				// lookup mixed in.
				if n%4 == 3 {
					rt.Lookup(addr)
				} else if _, derr := rt.Dispatch(addr); derr != nil {
					dispatchErrs.Add(1)
				}
				lookups.Add(1)
				phaseLookups[pi].Add(1)
			}
		}()
	}
	finish := func() {
		close(stop)
		lookerWG.Wait()
	}

	var (
		firstWrong    error
		stormEnd      time.Time
		expectedHash  uint64
		stormDispPrev int64
		stormDivPrev  int64
	)
	si := sc.StormPhase()
	for pi, ph := range sc.Phases {
		phaseIdx.Store(int32(pi))
		before := rt.Stats()
		pr := PhaseReport{Name: ph.Name, Storm: ph.Storm, Ops: len(ph.Updates)}
		if pi == si {
			stormDispPrev, stormDivPrev = before.Dispatched, before.Diverted
		}

		cpEvery := len(ph.Updates)
		if cfg.CheckpointsPerPhase > 0 && len(ph.Updates) > cfg.CheckpointsPerPhase {
			cpEvery = len(ph.Updates) / cfg.CheckpointsPerPhase
		}
		idx := 0
		for idx < len(ph.Updates) {
			// Same commuting-window submission as the soak harness: a
			// window never repeats a prefix and never crosses a
			// checkpoint, so the oracle model stays exact regardless of
			// how the writer batches it.
			limit := idx + windowMax
			if cp := ((idx / cpEvery) + 1) * cpEvery; cp < limit {
				limit = cp
			}
			end := idx
			seen := make(map[ip.Prefix]struct{}, windowMax)
			for end < len(ph.Updates) && end < limit {
				if _, dup := seen[ph.Updates[end].Prefix]; dup {
					break
				}
				seen[ph.Updates[end].Prefix] = struct{}{}
				end++
			}
			if end == idx {
				end = idx + 1
			}
			window := ph.Updates[idx:end]

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
			for i, werr := range errs {
				if werr != nil {
					rep.UpdateErrors++
					finish()
					return rep, fmt.Errorf("chaos: scenario %s phase %s op %d (%v %s): %w",
						cfg.Name, ph.Name, idx+i, window[i].Kind, window[i].Prefix, werr)
				}
				applyModel(model, window[i])
			}
			idx = end

			if idx%cpEvery == 0 || idx == len(ph.Updates) {
				wrong, checked := scenarioCheckpoint(rt, model, probeRNG, cfg.Probes)
				rep.Checkpoints++
				pr.Checkpoints++
				rep.CheckedLookups += checked
				rep.WrongAnswers += len(wrong)
				if len(wrong) > 0 && firstWrong == nil {
					firstWrong = fmt.Errorf("phase %s op %d: %w", ph.Name, idx, wrong[0])
				}
				logf(cfg.Log, "scenario %s: phase %s op %6d/%d — checkpoint %d, %d probes, %d wrong, %d routes",
					cfg.Name, ph.Name, idx, len(ph.Updates), rep.Checkpoints, checked, len(wrong), rt.Snapshot().Len())
			}
		}

		if pi == si {
			// Convergence clock starts the moment the storm's last
			// update has been accepted; the expected hash is the
			// oracle's canonical compression, digested by the feed
			// wire-format hash (independent of serve's implementation).
			stormEnd = time.Now()
			expectedHash = feed.CanonicalHash(onrtc.Compress(trie.FromRoutes(model.Routes())).Routes())
			deadline := contract.MaxConverge
			if deadline <= 0 {
				deadline = 10 * time.Second
			}
			rep.Converged, rep.ConvergeNs = awaitConvergence(rt, expectedHash, stormEnd, deadline)
			logf(cfg.Log, "scenario %s: storm done — converged=%v in %s (hash %016x)",
				cfg.Name, rep.Converged, time.Duration(rep.ConvergeNs), expectedHash)
		}

		after := rt.Stats()
		pr.Lookups = phaseLookups[pi].Load()
		if d := after.Dispatched - before.Dispatched; d > 0 {
			pr.DivertRate = float64(after.Diverted-before.Diverted) / float64(d)
		}
		pr.RoutesAfter = after.Routes
		rep.Phases = append(rep.Phases, pr)
		if pi == si {
			if d := after.Dispatched - stormDispPrev; d > 0 {
				rep.StormDivertRate = float64(after.Diverted-stormDivPrev) / float64(d)
			}
		}
	}

	finish()
	st := rt.Stats()
	rep.Lookups = lookups.Load()
	rep.DispatchErrors = dispatchErrs.Load()
	rep.DispatchP99Ns = st.Latency.DispatchP99Ns()
	rep.DivertRate = st.DivertRate()
	rep.TableHash = fmt.Sprintf("%016x", st.TableHash)
	rep.PeakRoutes = st.PeakRoutes
	rep.FinalRoutes = st.Routes
	rep.Rebalance = st.Rebalance

	rt.Close()
	closed = true
	rep.GoroutinesAfter = awaitGoroutines(rep.GoroutinesBefore)

	switch {
	case rep.WrongAnswers > 0:
		return rep, fmt.Errorf("chaos: scenario %s: %d wrong answers vs oracle (first: %w)", cfg.Name, rep.WrongAnswers, firstWrong)
	case rep.DispatchErrors > 0:
		return rep, fmt.Errorf("chaos: scenario %s: %d dispatches failed their retry/timeout budget", cfg.Name, rep.DispatchErrors)
	case !rep.Converged:
		return rep, fmt.Errorf("chaos: scenario %s: table never converged to oracle hash %016x within %v (published %s)",
			cfg.Name, expectedHash, contract.MaxConverge, rep.TableHash)
	case contract.MaxConverge > 0 && rep.ConvergeNs > contract.MaxConverge.Nanoseconds():
		return rep, fmt.Errorf("chaos: scenario %s: time-to-converge %v exceeds the contract bound %v",
			cfg.Name, time.Duration(rep.ConvergeNs), contract.MaxConverge)
	case contract.MaxDegradedP99 > 0 && rep.DispatchP99Ns > float64(contract.MaxDegradedP99.Nanoseconds()):
		return rep, fmt.Errorf("chaos: scenario %s: dispatch p99 %.0fns exceeds the contract bound %v",
			cfg.Name, rep.DispatchP99Ns, contract.MaxDegradedP99)
	case contract.MaxDivertRate > 0 && rep.DivertRate > contract.MaxDivertRate:
		return rep, fmt.Errorf("chaos: scenario %s: divert rate %.3f exceeds the contract bound %.3f (storm-window rate %.3f)",
			cfg.Name, rep.DivertRate, contract.MaxDivertRate, rep.StormDivertRate)
	case rep.GoroutinesAfter > rep.GoroutinesBefore:
		return rep, fmt.Errorf("chaos: scenario %s: goroutine leak: %d before, %d after close", cfg.Name, rep.GoroutinesBefore, rep.GoroutinesAfter)
	}
	return rep, nil
}

func applyModel(m *oracle.Model, u tracegen.Update) {
	switch u.Kind {
	case tracegen.Announce:
		m.Announce(u.Prefix, u.Hop)
	case tracegen.Withdraw:
		m.Withdraw(u.Prefix)
	}
}

// scenarioCheckpoint quiesces and diffs the runtime against the
// brute-force model: the published table route-for-route against the
// model's canonical compression (plus the ONRTC disjointness
// invariant), then sampled boundaries and random probes through the
// snapshot and dispatch paths. The mirror trie is rebuilt from the
// model each time, so a model mutant (deliberate or real divergence)
// surfaces here, mid-storm, not just at the end.
func scenarioCheckpoint(rt *serve.Runtime, model *oracle.Model, rng *rand.Rand, probes int) (wrong []error, checked int) {
	return checkpoint(rt, trie.FromRoutes(model.Routes()), rng, probes)
}

// awaitConvergence polls the runtime's canonical table hash until it
// matches the oracle expectation, and reports whether it matched and
// how long after stormEnd the first match landed.
func awaitConvergence(rt *serve.Runtime, want uint64, stormEnd time.Time, deadline time.Duration) (bool, int64) {
	limit := stormEnd.Add(deadline)
	for {
		if rt.TableHash() == want {
			return true, time.Since(stormEnd).Nanoseconds()
		}
		if time.Now().After(limit) {
			return false, time.Since(stormEnd).Nanoseconds()
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Reproducer is the shrunk failing configuration clue-chaos and the
// weekly soak write next to a failed scenario run.
type Reproducer struct {
	Config ScenarioConfig `json:"config"`
	Error  string         `json:"error"`
	Report ScenarioReport `json:"report"`
	// Shrunk reports whether the config is smaller than the original
	// failing run (the original always reproduces too).
	Shrunk bool `json:"shrunk"`
}

// writeReproducer shrinks the failing config (halving the FIB and the
// storm while the failure persists, a few rounds at most) and writes a
// replayable JSON reproducer into cfg.ReproDir.
func writeReproducer(cfg ScenarioConfig, rep ScenarioReport, runErr error) {
	small := cfg
	small.ReproDir = "" // no recursive artifacts
	small.Log = nil
	small.Lookers = 1 // failure classes the shrinker chases are traffic-independent
	repro := Reproducer{Config: small, Error: runErr.Error(), Report: rep}
	for round := 0; round < 4; round++ {
		cand := small
		if cand.Routes == 0 {
			cand.Routes = rep.Routes
		}
		cand.Routes /= 2
		if cand.StormOps > 0 {
			cand.StormOps /= 2
		}
		if cand.Routes < 600 {
			break
		}
		candRep, candErr := runScenario(cand)
		if candErr == nil {
			break
		}
		small = cand
		repro = Reproducer{Config: small, Error: candErr.Error(), Report: candRep, Shrunk: true}
		logf(cfg.Log, "scenario %s: shrink round %d still fails at routes=%d", cfg.Name, round+1, cand.Routes)
	}
	buf, err := json.MarshalIndent(repro, "", "  ")
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	if err := os.MkdirAll(cfg.ReproDir, 0o755); err != nil {
		return
	}
	path := filepath.Join(cfg.ReproDir, fmt.Sprintf("scenario-%s-seed%d.json", cfg.Name, cfg.Seed))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return
	}
	logf(cfg.Log, "scenario %s: reproducer written to %s", cfg.Name, path)
}
