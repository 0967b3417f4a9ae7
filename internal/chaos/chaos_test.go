package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"clue/internal/feed"
	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/oracle"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/ttf"
)

// testOptions keeps runs small enough for tier-1 CI while still
// exercising multi-window storms, every fault and mid-storm checkpoints.
func testOptions(name string) Options {
	return Options{
		Scenario:    name,
		Seed:        7,
		Routes:      1500,
		StormOps:    400,
		Lookers:     2,
		Checkpoints: 2,
		Probes:      200,
		// Latency is load-dependent on shared CI machines; the latency
		// bound gets its own deterministic coverage below, so the
		// functional tests only keep the convergence bound.
		MaxDegradedP99: -1,
		MaxDivertRate:  -1,
	}
}

// TestRunAllPrograms replays every program end to end: zero wrong
// answers against the brute-force model, convergence to the oracle hash
// after the storm, checkpoints actually firing mid-storm, no goroutine
// left behind, and a sane machine-readable report. Outside -short the
// two fault programs run at their preset size.
func TestRunAllPrograms(t *testing.T) {
	for _, name := range tracegen.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			o := testOptions(name)
			if !testing.Short() && (name == tracegen.ScenarioWorkerFaults || name == tracegen.ScenarioFeedPartition) {
				o = Options{Scenario: name, Seed: 7}
			}
			rep, err := Run(o)
			if err != nil {
				t.Fatalf("scenario failed: %v\nreport: %+v", err, rep)
			}
			if rep.WrongAnswers != 0 || rep.DispatchErrors != 0 || rep.UpdateErrors != 0 {
				t.Fatalf("errors in passing run: %+v", rep)
			}
			if !rep.Converged || rep.ConvergeNs < 0 {
				t.Fatalf("no convergence measurement: %+v", rep)
			}
			if rep.Checkpoints < 2*len(rep.Phases) {
				t.Fatalf("only %d checkpoints over %d phases", rep.Checkpoints, len(rep.Phases))
			}
			if rep.CheckedLookups == 0 || rep.Lookups == 0 || rep.DispatchP99Ns <= 0 {
				t.Fatalf("no lookup coverage: %+v", rep)
			}
			if len(rep.Phases) != 3 || !rep.Phases[1].Storm || rep.Phases[1].Lookups == 0 {
				t.Fatalf("unexpected phase layout: %+v", rep.Phases)
			}
			if rep.Ops != rep.Phases[0].Ops+rep.Phases[1].Ops+rep.Phases[2].Ops {
				t.Fatalf("phase op counts do not sum: %+v", rep)
			}
			if rep.GoroutinesAfter > rep.GoroutinesBefore {
				t.Fatalf("goroutine leak: %d -> %d", rep.GoroutinesBefore, rep.GoroutinesAfter)
			}
			if name == tracegen.ScenarioRouteLeak && rep.PeakRoutes <= int64(rep.Routes) {
				t.Fatalf("route leak never bloated the table: peak %d, base %d", rep.PeakRoutes, rep.Routes)
			}
			if len(rep.TableHash) != 16 {
				t.Fatalf("bad table hash %q", rep.TableHash)
			}
			switch name {
			case tracegen.ScenarioWorkerFaults:
				checkWorkerFaultCycles(t, rep)
			case tracegen.ScenarioFeedPartition:
				checkFeedRecoveryPaths(t, rep)
			default:
				if len(rep.Faults) != 0 || rep.Replicas != 0 {
					t.Fatalf("storm program injected faults: %+v", rep.Faults)
				}
			}
			buf, jerr := json.Marshal(rep)
			if jerr != nil || !strings.Contains(string(buf), `"scenario":"`+name+`"`) {
				t.Fatalf("report does not serialise: %v %s", jerr, buf)
			}
		})
	}
}

// checkWorkerFaultCycles: every kill/poison/stall/recover/recut cycle
// was injected and counted, the poisoned workers' panics were recovered,
// and each health transition re-homed the partitions.
func checkWorkerFaultCycles(t *testing.T, rep Report) {
	t.Helper()
	f := rep.Faults
	if f["kill"] != 2 || f["poison"] != 1 || f["recover"] != 3 || f["stall"] != 3 || f["release"] != 3 || f["recut"] != 3 {
		t.Fatalf("fault cycles incomplete: %v", f)
	}
	if rep.Panics < int64(f["poison"]) {
		t.Fatalf("panics %d < poisons %d", rep.Panics, f["poison"])
	}
	if transitions := int64(f["kill"] + f["poison"] + f["recover"]); rep.Rehomes < transitions {
		t.Fatalf("rehomes %d < health transitions %d", rep.Rehomes, transitions)
	}
}

// checkFeedRecoveryPaths: the whole fault schedule ran; the brief cut
// resumed from the replay log, the over-window cut fell back to a fresh
// snapshot, the stall showed real lag, the collector handoff lost
// nobody, and the periodic hash frames never disagreed.
func checkFeedRecoveryPaths(t *testing.T, rep Report) {
	t.Helper()
	f := rep.Faults
	if f["cut"] != 2 || f["heal"] != 2 || f["stall-applier"] != 1 || f["release-applier"] != 1 || f["restart-collector"] != 1 {
		t.Fatalf("fault schedule did not run fully: %v", f)
	}
	if rep.Replicas != 2 || len(rep.Followers) != 2 {
		t.Fatalf("replicas: %d, follower stats: %d", rep.Replicas, len(rep.Followers))
	}
	a, b := rep.Followers[0], rep.Followers[1]
	if a.Resumes == 0 || a.SnapshotLoads != 1 {
		t.Fatalf("briefly cut follower: %d resumes, %d snapshot loads; want a resume and only the bootstrap", a.Resumes, a.SnapshotLoads)
	}
	if b.SnapshotLoads < 2 {
		t.Fatalf("over-window cut follower loaded %d snapshots, want >= 2", b.SnapshotLoads)
	}
	if rep.MaxLag == 0 {
		t.Fatal("stall phase never showed follower lag")
	}
	for i, s := range rep.Followers {
		if s.HashChecks == 0 || s.HashMismatches != 0 {
			t.Fatalf("follower %d: %d hash checks, %d mismatches", i, s.HashChecks, s.HashMismatches)
		}
		// Both outlived the collector restart on the successor's stream.
		if s.State != "streaming" || s.LastApplied != a.LastApplied {
			t.Fatalf("follower %d ended %s at batch %d (other at %d)", i, s.State, s.LastApplied, a.LastApplied)
		}
	}
}

// TestDispatchP99Bound pins the degraded-mode latency bound's gating on
// the worker-fault program: an absurdly tight bound must fail the run
// with the p99 error, kill/poison/stall storms included.
func TestDispatchP99Bound(t *testing.T) {
	o := testOptions(tracegen.ScenarioWorkerFaults)
	o.MaxDegradedP99 = 1 // 1ns: no real dispatch can pass
	rep, err := Run(o)
	if err == nil || !strings.Contains(err.Error(), "dispatch p99") {
		t.Fatalf("1ns bound: err = %v, want dispatch p99 violation", err)
	}
	if rep.Contract.MaxDegradedP99 != 1 || rep.DispatchP99Ns <= 1 {
		t.Fatalf("1ns bound report: %+v", rep)
	}
}

// TestContractViolation: an absurdly tight converge bound must turn a
// healthy run into a contract failure (the report still carries the
// measurement), proving the bounds are asserted, not decorative.
func TestContractViolation(t *testing.T) {
	o := testOptions(tracegen.ScenarioUpdateBurst)
	o.Routes = 900
	o.MaxConverge = time.Nanosecond
	rep, err := Run(o)
	if err == nil || !strings.Contains(err.Error(), "time-to-converge") {
		t.Fatalf("1ns converge bound did not trip: err=%v rep=%+v", err, rep)
	}
	if !rep.Converged {
		t.Fatalf("run should have converged (just late): %+v", rep)
	}
}

// TestSequentialTTFReplay runs the worker-fault program one op at a time
// and demands the runtime's TTF accounting exactly matches a replay of
// the same trace through a fresh onrtc.Updater under the same cost model.
func TestSequentialTTFReplay(t *testing.T) {
	o := testOptions(tracegen.ScenarioWorkerFaults)
	o.Sequential = true
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("sequential run failed: %v\nreport: %+v", err, rep)
	}
	if !rep.TTFChecked || rep.WrongAnswers != 0 {
		t.Fatalf("TTF replay equivalence did not run clean: %+v", rep)
	}
}

// TestTTFReplayCatchesWriterFaults: the replay reference refuses an
// unknown op kind, matches itself on the exact trace, and catches a
// writer that dropped, duplicated or reordered an op.
func TestTTFReplayCatchesWriterFaults(t *testing.T) {
	base := []ip.Route{{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1}}
	if err := checkTTFReplay(base, []tracegen.Update{{Kind: tracegen.UpdateKind(99)}}, ttf.TTF{}, ttf.TTF{}); err == nil ||
		!strings.Contains(err.Error(), "unknown update kind") {
		t.Fatalf("unknown kind accepted: %v", err)
	}
	trace := []tracegen.Update{
		{Kind: tracegen.Announce, Prefix: ip.MustParsePrefix("10.1.0.0/16"), Hop: 2},
		{Kind: tracegen.Announce, Prefix: ip.MustParsePrefix("10.1.0.0/16"), Hop: 1},
		{Kind: tracegen.Withdraw, Prefix: ip.MustParsePrefix("10.0.0.0/8")},
	}
	if got, _ := replayTTF(base, trace); checkTTFReplay(base, trace, got, got) != nil {
		t.Fatalf("exact trace does not replay to its own totals %+v", got)
	}
	for name, mutant := range map[string][]tracegen.Update{
		"dropped":    trace[:2],
		"duplicated": {trace[0], trace[1], trace[1], trace[2]},
		"reordered":  {trace[1], trace[0], trace[2]},
	} {
		if got, _ := replayTTF(base, mutant); checkTTFReplay(base, trace, got, got) == nil {
			t.Errorf("%s op not caught: totals %+v", name, got)
		}
	}
	if ttfClose(ttf.TTF{Trie: 1}, ttf.TTF{Trie: 2}) {
		t.Fatal("distinct TTFs reported close")
	}
}

// TestMutantCaughtAndShrunk is the harness's self-test, on every
// program: with the oracle's drop-withdraw mutant planted, a checkpoint
// must fail mid-program — the model keeps routes the runtimes dropped —
// and the run must leave a shrunk reproducer whose options replay to the
// same failure. A harness that cannot catch a planted bug proves nothing
// about real ones.
func TestMutantCaughtAndShrunk(t *testing.T) {
	for _, name := range tracegen.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			o := testOptions(name)
			// One halving must still leave feed-partition its storm floor.
			o.Routes, o.StormOps = 1300, 600
			o.Mutant = oracle.MutantDropWithdraw
			o.ReproDir = t.TempDir()
			rep, err := Run(o)
			if err == nil || rep.WrongAnswers == 0 {
				t.Fatalf("planted drop-withdraw mutant not caught: err=%v rep=%+v", err, rep)
			}
			if len(rep.Phases) == 3 {
				t.Fatalf("mutant caught only after the last phase, not mid-program: %v", err)
			}
			buf, err := os.ReadFile(filepath.Join(o.ReproDir, "scenario-"+name+"-seed7.json"))
			if err != nil {
				t.Fatalf("no reproducer: %v", err)
			}
			var repro Reproducer
			if err := json.Unmarshal(buf, &repro); err != nil {
				t.Fatalf("reproducer does not parse: %v\n%s", err, buf)
			}
			if repro.Options.Mutant != oracle.MutantDropWithdraw || repro.Options.Scenario != name || repro.Error == "" {
				t.Fatalf("reproducer lost the failing options: %+v", repro)
			}
			if !repro.Shrunk || repro.Options.Routes >= o.Routes || repro.Report.Routes >= rep.Routes {
				t.Fatalf("1300 routes did not shrink: %+v", repro.Options)
			}
			// The reproducer must replay: the same options must still fail,
			// the same way.
			again, err := Run(repro.Options)
			if err == nil || again.WrongAnswers == 0 {
				t.Fatalf("reproducer options pass on replay: %+v", repro.Options)
			}
		})
	}
}

// TestDeterministic replays every program twice on one seed and expects
// the deterministic half of the report to be identical — everything
// except traffic volume, timing and the route high-water mark, which
// depends on the order the writer happened to batch a window in.
func TestDeterministic(t *testing.T) {
	for _, name := range tracegen.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			o := testOptions(name)
			o.Seed = 23
			det := func() string {
				rep, err := Run(o)
				if err != nil {
					t.Fatal(err)
				}
				buf, _ := json.Marshal([]any{rep.Faults, rep.Ops, rep.Checkpoints, rep.CheckedLookups,
					rep.WrongAnswers, rep.FinalRoutes, rep.TableHash, len(rep.Followers)})
				return string(buf)
			}
			if a, b := det(), det(); a != b {
				t.Fatalf("same seed, different runs:\n%s\n%s", a, b)
			}
		})
	}
}

// TestNoGoroutineLeakOnUpdateError forces the early-return path the old
// soak driver leaked its lookers on: the program's second update
// announces next hop 0, which the writer (and the collector) reject. The
// run must return that error and leave no goroutine behind — lookers
// spinning on a closed runtime would starve every later test.
func TestNoGoroutineLeakOnUpdateError(t *testing.T) {
	fib, err := fibgen.Generate(fibgen.Config{Seed: 5, Routes: 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{0, 2} {
		sc := &tracegen.Scenario{Name: "rejected-update", Base: fib.Routes(), Replicas: replicas,
			Phases: []tracegen.ScenarioPhase{{Name: "only", Storm: true, Updates: []tracegen.Update{
				{Kind: tracegen.Announce, Prefix: ip.MustParsePrefix("203.0.113.0/24"), Hop: 3},
				{Kind: tracegen.Announce, Prefix: ip.MustParsePrefix("198.51.100.0/24"), Hop: 0},
			}}}}
		before := runtime.NumGoroutine()
		rep, err := run(Options{Seed: 1, Workers: 2, Lookers: 4}.withDefaults(), sc)
		if err == nil || rep.UpdateErrors != 1 {
			t.Fatalf("replicas=%d: next hop 0 accepted: err=%v rep=%+v", replicas, err, rep)
		}
		if after := awaitGoroutines(before); after > before {
			t.Fatalf("replicas=%d: %d goroutines before the failed run, %d after", replicas, before, after)
		}
	}
}

// TestFaultNeedsItsTopology: a link fault in a program without replicas
// is a program error, reported with the fault named, not a panic.
func TestFaultNeedsItsTopology(t *testing.T) {
	fib, err := fibgen.Generate(fibgen.Config{Seed: 5, Routes: 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []tracegen.FaultKind{tracegen.FaultCut, tracegen.FaultRestartCollector, tracegen.FaultKind(99)} {
		sc := &tracegen.Scenario{Name: "misplaced-fault", Base: fib.Routes(),
			Phases: []tracegen.ScenarioPhase{{Name: "only", Storm: true, Faults: []tracegen.Fault{{Kind: kind}}}}}
		if _, err := run(Options{Seed: 1, Lookers: 1}.withDefaults(), sc); err == nil || !strings.Contains(err.Error(), kind.String()) {
			t.Fatalf("fault %s in a direct program: err = %v", kind, err)
		}
	}
}

// TestOptionsPresetsAndValidate: presets own their defaults, a zero
// means "preset default", an explicit value is always honoured — even
// one that equals another preset's default — and options no run could
// honour are refused before anything boots.
func TestOptionsPresetsAndValidate(t *testing.T) {
	type sizes struct{ routes, workers, lookers, checkpoints, probes int }
	resolved := func(o Options) sizes {
		o = o.withDefaults()
		return sizes{o.Routes, o.Workers, o.Lookers, o.Checkpoints, o.Probes}
	}
	for _, c := range []struct {
		o    Options
		want sizes
	}{
		{Options{Scenario: tracegen.ScenarioWorkerFaults}, sizes{12000, 4, 4, 3, 800}},
		{Options{Scenario: tracegen.ScenarioRouteLeak}, sizes{12000, 4, 4, 3, 800}},
		{Options{Scenario: tracegen.ScenarioFeedPartition}, sizes{3000, 2, 4, 3, 800}},
		{Options{Scenario: tracegen.ScenarioFeedPartition, Routes: 12000, Workers: 4}, sizes{12000, 4, 4, 3, 800}},
		{Options{Scenario: tracegen.ScenarioFlashCrowd, paced: true}, sizes{4000, 4, 120, 3, 800}},
		{Options{Scenario: tracegen.ScenarioFlashCrowd, paced: true, Routes: 12000, Lookers: 4}, sizes{12000, 4, 4, 3, 800}},
		{Options{Scenario: tracegen.ScenarioUpdateBurst, Routes: 1, Workers: 2, Lookers: 3, Checkpoints: 4, Probes: 5}, sizes{1, 2, 3, 4, 5}},
	} {
		if got := resolved(c.o); got != c.want {
			t.Errorf("%+v resolved to %+v, want %+v", c.o, got, c.want)
		}
	}

	ok := Options{Scenario: tracegen.ScenarioSessionReset}
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero options refused: %v", err)
	}
	for name, mutate := range map[string]func(*Options){
		"unknown scenario":     func(o *Options) { o.Scenario = "no-such-storm" },
		"negative routes":      func(o *Options) { o.Routes = -1 },
		"negative storm":       func(o *Options) { o.StormOps = -1 },
		"negative workers":     func(o *Options) { o.Workers = -1 },
		"negative lookers":     func(o *Options) { o.Lookers = -1 },
		"negative checkpoints": func(o *Options) { o.Checkpoints = -1 },
		"negative probes":      func(o *Options) { o.Probes = -1 },
		"divert rate above 1":  func(o *Options) { o.MaxDivertRate = 1.5 },
		"sequential replicas":  func(o *Options) { o.Scenario, o.Sequential = tracegen.ScenarioFeedPartition, true },
	} {
		o := ok
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
		if rep, err := Run(o); err == nil || rep.Ops != 0 {
			t.Errorf("%s: Run went ahead: err=%v", name, err)
		}
	}
	// A storm the program cannot schedule its faults in is a generation
	// error, not a hang.
	if _, err := Run(Options{Scenario: tracegen.ScenarioFeedPartition, Routes: 700, StormOps: 20}); err == nil {
		t.Fatal("feed-partition accepted a 20-op storm")
	}
}

// TestImprovementVerdict pins the comparison's contract on synthetic
// legs: the declared 20% margin, the recut requirement, and the pressure
// floor that turns a workload which never stressed the static carve into
// an explicit "inconclusive" instead of a vacuous pass.
func TestImprovementVerdict(t *testing.T) {
	leg := func(rate float64, recuts int64) Report {
		return Report{SteadyDispatches: 2000, SteadyDivertRate: rate, Rebalance: serve.RebalanceStats{Recuts: recuts}}
	}
	for _, c := range []struct {
		name    string
		off, on Report
		imp     float64
		wantErr string
	}{
		{"improved", leg(0.10, 0), leg(0.02, 2), 0.8, ""},
		{"exactly the margin", leg(0.10, 0), leg(0.08, 1), 0.2, ""},
		{"below the margin", leg(0.10, 0), leg(0.09, 1), 0.1, "contract failed"},
		{"regressed", leg(0.10, 0), leg(0.15, 1), -0.5, "contract failed"},
		{"never recut", leg(0.10, 0), leg(0.02, 0), 0.8, "never recut"},
		{"no pressure", leg(0.01, 0), leg(0.0, 3), 1, "inconclusive"},
		{"no divert at all", leg(0, 0), leg(0, 3), 0, "inconclusive"},
		{"empty window", leg(0.10, 0), Report{}, 1, "no dispatches"},
	} {
		imp, err := Improvement(c.off, c.on)
		if d := imp - c.imp; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: improvement %v, want %v", c.name, imp, c.imp)
		}
		if (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

// TestCompareRebalanceFlashCrowd is the closed-loop contract: the same
// flash-crowd program replayed with the static carve and with the
// repartitioning controller must show the controller recutting and the
// steady-state divert rate improving by the declared margin. The run is
// wall-clock paced (the controller needs real time to converge), so it
// is skipped in -short mode and the weekly job runs it through
// clue-chaos -compare-rebalance.
func TestCompareRebalanceFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock paced comparison; covered by the weekly fault-harness job")
	}
	off, on, err := Compare(Options{Seed: 7, Log: testWriter{t}})
	if err != nil {
		t.Fatalf("comparison failed: %v\noff: %+v\non: %+v", err, off, on)
	}
	imp, err := Improvement(off, on)
	if err != nil {
		t.Fatalf("contract: %v\noff: %+v\non: %+v", err, off, on)
	}
	if on.Rebalance.MovedRoutes == 0 || off.Rebalance.Recuts != 0 {
		t.Fatalf("controller counters: off %+v on %+v", off.Rebalance, on.Rebalance)
	}
	if off.Scenario != tracegen.ScenarioFlashCrowd || off.WrongAnswers+on.WrongAnswers != 0 || off.SteadyNs == 0 {
		t.Fatalf("legs: off %+v on %+v", off, on)
	}
	t.Logf("improvement %.3f", imp)
}

// testWriter adapts t.Logf for the harness's progress log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestCanonicalHashCrossImplementation pins the convergence protocol's
// core assumption: serve's incremental snapshot digest and the feed
// wire-format digest are byte-compatible over the same table. The
// whole time-to-converge measurement compares one against the other.
func TestCanonicalHashCrossImplementation(t *testing.T) {
	fib, err := fibgen.Generate(fibgen.Config{Seed: 5, Routes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serve.New(fib.Routes(), serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got, want := rt.TableHash(), feed.CanonicalHash(rt.Snapshot().Routes()); got != want {
		t.Fatalf("serve hash %016x != feed hash %016x over the same table", got, want)
	}
	// And again after churn forces republication.
	gen, err := tracegen.NewUpdateGen(fib, tracegen.UpdateConfig{Seed: 6, Messages: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range gen.NextN(300) {
		if u.Kind == tracegen.Announce {
			_, err = rt.Announce(u.Prefix, u.Hop)
		} else {
			_, err = rt.Withdraw(u.Prefix)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := rt.TableHash(), feed.CanonicalHash(rt.Snapshot().Routes()); got != want {
		t.Fatalf("post-churn serve hash %016x != feed hash %016x", got, want)
	}
}

// FuzzScenarioReplay fuzzes the harness end to end on small programs:
// for any seed/shape of any of the six programs, generation either
// errors cleanly or the replay must pass the oracle checkpoints and
// converge — no divergence, no panic. Latency/divert bounds are disabled
// (they are load-dependent, not logic).
func FuzzScenarioReplay(f *testing.F) {
	f.Add(int64(7), uint8(0), uint16(700), uint16(60))
	f.Add(int64(11), uint8(1), uint16(900), uint16(0))
	f.Add(int64(23), uint8(2), uint16(650), uint16(120))
	f.Add(int64(42), uint8(3), uint16(800), uint16(40))
	f.Add(int64(5), uint8(4), uint16(750), uint16(90))
	f.Add(int64(3), uint8(5), uint16(600), uint16(10))
	names := tracegen.ScenarioNames()
	f.Fuzz(func(t *testing.T, seed int64, which uint8, routes uint16, stormOps uint16) {
		o := Options{
			Scenario:       names[int(which)%len(names)],
			Seed:           seed,
			Routes:         600 + int(routes)%700,
			StormOps:       int(stormOps) % 300,
			Workers:        2,
			Lookers:        1,
			Checkpoints:    2,
			Probes:         100,
			MaxDegradedP99: -1,
			MaxDivertRate:  -1,
		}
		if o.Scenario == tracegen.ScenarioFeedPartition {
			o.StormOps += 256 // the fault schedule's floor
		}
		rep, err := Run(o)
		if err != nil {
			// Only generation-time errors are acceptable (e.g. a seed
			// whose FIB has no /8../22 cover for route-leak); any
			// replay-time failure is oracle divergence or a broken
			// invariant.
			if rep.Ops != 0 {
				t.Fatalf("scenario %s seed %d diverged: %v", o.Scenario, seed, err)
			}
			return
		}
		if rep.WrongAnswers != 0 || !rep.Converged {
			t.Fatalf("scenario %s seed %d: wrong=%d converged=%v", o.Scenario, seed, rep.WrongAnswers, rep.Converged)
		}
	})
}
