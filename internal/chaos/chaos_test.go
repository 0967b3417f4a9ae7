package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"clue/internal/ip"
	"clue/internal/tracegen"
	"clue/internal/update"
)

// TestChaosSoak is the acceptance soak: a 10K-op update storm with three
// kill/recover cycles (operator fails and injected panics), queue
// stalls, and concurrent lookup traffic, checkpointed against a fresh
// oracle. -short runs a scaled-down storm with the same structure.
func TestChaosSoak(t *testing.T) {
	cfg := Config{Seed: 7}
	if testing.Short() {
		cfg = Config{Seed: 7, Routes: 4000, Ops: 1500, Cycles: 2, Checkpoints: 5, ProbesPerCheckpoint: 500, Lookers: 2}
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run failed: %v\nreport: %+v", err, rep)
	}
	wantCycles := 3
	if testing.Short() {
		wantCycles = 2
	}
	if rep.Kills+rep.Poisons < wantCycles {
		t.Fatalf("only %d kills + %d poisons, want %d cycles", rep.Kills, rep.Poisons, wantCycles)
	}
	if rep.Recoveries != rep.Kills+rep.Poisons {
		t.Fatalf("recoveries %d != kills+poisons %d", rep.Recoveries, rep.Kills+rep.Poisons)
	}
	if rep.Poisons > 0 && rep.Panics < int64(rep.Poisons) {
		t.Fatalf("panics %d < poisons %d", rep.Panics, rep.Poisons)
	}
	if rep.Stalls == 0 {
		t.Fatal("no stalls injected")
	}
	if rep.WrongAnswers != 0 || rep.DispatchErrors != 0 {
		t.Fatalf("wrong=%d dispatch errors=%d", rep.WrongAnswers, rep.DispatchErrors)
	}
	if rep.CheckedLookups == 0 || rep.Lookups == 0 {
		t.Fatalf("no verification traffic: checked=%d lookups=%d", rep.CheckedLookups, rep.Lookups)
	}
	if rep.FinalStats.Rehomes < int64(rep.Kills+rep.Poisons+rep.Recoveries) {
		t.Fatalf("rehomes %d < health transitions %d", rep.FinalStats.Rehomes, rep.Kills+rep.Poisons+rep.Recoveries)
	}
	if rep.GoroutinesAfter > rep.GoroutinesBefore {
		t.Fatalf("goroutine leak: %d -> %d", rep.GoroutinesBefore, rep.GoroutinesAfter)
	}
	// The degraded-mode latency assertion ran (default 1s bound) and
	// recorded a real tail: dispatches were sampled through the whole
	// kill/poison/stall schedule.
	if !rep.DispatchP99Bounded {
		t.Fatal("dispatch p99 bound did not run under the default config")
	}
	if rep.DispatchP99Ns <= 0 {
		t.Fatalf("dispatch p99 = %g, want positive after a soak with traffic", rep.DispatchP99Ns)
	}
}

// TestChaosDispatchP99Bound pins the bound's gating behavior on a small
// storm: an absurdly tight bound must fail the run with the p99 error,
// and a negative bound must disable the assertion entirely.
func TestChaosDispatchP99Bound(t *testing.T) {
	cfg := Config{Seed: 31, Routes: 3000, Ops: 600, Cycles: 1, Checkpoints: 2, ProbesPerCheckpoint: 200, Lookers: 2}

	tight := cfg
	tight.MaxDispatchP99 = 1 // 1ns: no real dispatch can pass
	rep, err := Run(tight)
	if err == nil || !strings.Contains(err.Error(), "dispatch p99") {
		t.Fatalf("1ns bound: err = %v, want dispatch p99 violation", err)
	}
	if !rep.DispatchP99Bounded || rep.DispatchP99Ns <= 1 {
		t.Fatalf("1ns bound report: %+v", rep)
	}

	off := cfg
	off.MaxDispatchP99 = -1
	rep, err = Run(off)
	if err != nil {
		t.Fatalf("disabled bound still failed: %v", err)
	}
	if rep.DispatchP99Bounded {
		t.Fatal("negative MaxDispatchP99 did not disable the bound")
	}
}

// TestChaosSequentialTTFReplay runs the storm one op at a time and
// demands the runtime's TTF accounting exactly matches a replay of the
// same trace through a fresh onrtc.Updater under the same cost model.
func TestChaosSequentialTTFReplay(t *testing.T) {
	cfg := Config{Seed: 11, Routes: 3000, Ops: 400, Cycles: 2, Checkpoints: 4, ProbesPerCheckpoint: 300, Lookers: 2, Sequential: true}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("sequential chaos run failed: %v\nreport: %+v", err, rep)
	}
	if !rep.TTFChecked {
		t.Fatal("TTF replay equivalence did not run")
	}
	if rep.WrongAnswers != 0 {
		t.Fatalf("wrong answers: %d", rep.WrongAnswers)
	}
}

// TestChaosDeterministic replays the same seed twice and expects the
// deterministic half of the report (everything except traffic volume)
// to be identical.
func TestChaosDeterministic(t *testing.T) {
	cfg := Config{Seed: 23, Routes: 3000, Ops: 1200, Cycles: 2, Checkpoints: 4, ProbesPerCheckpoint: 300, Lookers: 2}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type det struct {
		kills, poisons, stalls, recoveries, checkpoints, checked, wrong, finalRoutes int
	}
	da := det{a.Kills, a.Poisons, a.Stalls, a.Recoveries, a.Checkpoints, a.CheckedLookups, a.WrongAnswers, a.FinalRoutes}
	db := det{b.Kills, b.Poisons, b.Stalls, b.Recoveries, b.Checkpoints, b.CheckedLookups, b.WrongAnswers, b.FinalRoutes}
	if da != db {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", da, db)
	}
}

func TestConfigDefaultsAndHelpers(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Routes != 12000 || c.Ops != 10000 || c.Workers != 4 || c.Cycles != 3 ||
		c.Checkpoints != 10 || c.ProbesPerCheckpoint != 2000 || c.Lookers != 4 {
		t.Fatalf("zero config defaults: %+v", c)
	}
	if c.MaxDispatchP99 != time.Second {
		t.Fatalf("default MaxDispatchP99 = %v, want 1s", c.MaxDispatchP99)
	}
	if d := (Config{MaxDispatchP99: -1}).withDefaults(); d.MaxDispatchP99 != -1 {
		t.Fatalf("negative MaxDispatchP99 overwritten: %v", d.MaxDispatchP99)
	}
	c = Config{Routes: 1, Ops: 2, Workers: 3, Cycles: 4, Checkpoints: 5, ProbesPerCheckpoint: 6, Lookers: 7}.withDefaults()
	if c.Routes != 1 || c.Ops != 2 || c.Workers != 3 || c.Cycles != 4 ||
		c.Checkpoints != 5 || c.ProbesPerCheckpoint != 6 || c.Lookers != 7 {
		t.Fatalf("explicit config overwritten: %+v", c)
	}

	var buf bytes.Buffer
	logf(&buf, "checkpoint %d", 3)
	logf(nil, "dropped")
	if got := buf.String(); got != "checkpoint 3\n" {
		t.Fatalf("logf wrote %q", got)
	}

	// The TTF replay reference: an unknown op kind is refused, the exact
	// trace matches itself, and a writer that dropped, duplicated or
	// reordered an op is caught.
	base := []ip.Route{{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1}}
	if err := checkTTFReplay(base, []tracegen.Update{{Kind: tracegen.UpdateKind(99)}}, update.TTF{}, update.TTF{}); err == nil ||
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

	if !ttfClose(update.TTF{Trie: 1, TCAM: 2, DRed: 3}, update.TTF{Trie: 1, TCAM: 2, DRed: 3}) {
		t.Fatal("identical TTFs not close")
	}
	if ttfClose(update.TTF{Trie: 1}, update.TTF{Trie: 2}) {
		t.Fatal("distinct TTFs reported close")
	}
}
