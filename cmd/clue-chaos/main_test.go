package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"clue/internal/chaos"
	"clue/internal/oracle"
	"clue/internal/tracegen"
)

// TestRunWorkerFaults: the bare command's program, scaled down, through
// the CLI: the JSON report reaches stdout and -v logs faults and
// checkpoints.
func TestRunWorkerFaults(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{
		"-seed", "5", "-routes", "3000", "-storm-ops", "600",
		"-checkpoints", "2", "-probes", "200", "-lookers", "2", "-v",
	}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	var rep chaos.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	if rep.Scenario != tracegen.ScenarioWorkerFaults || rep.Phases[1].Ops != 600 || rep.Checkpoints == 0 || rep.WrongAnswers != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Faults["kill"]+rep.Faults["poison"] == 0 {
		t.Fatalf("no faults injected: %+v", rep.Faults)
	}
	if !strings.Contains(errw.String(), "checkpoint") || !strings.Contains(errw.String(), "poison(") {
		t.Fatalf("-v produced no progress log: %q", errw.String())
	}
}

func TestRunFeedPartition(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{
		"-scenario", "feed-partition", "-seed", "3", "-routes", "1500", "-storm-ops", "600", "-v",
	}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	var rep chaos.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	if rep.Replicas != 2 || rep.Faults["cut"] != 2 || rep.Faults["restart-collector"] != 1 || !rep.Converged {
		t.Fatalf("faults not exercised: %+v", rep)
	}
	if rep.Followers[0].Resumes == 0 || rep.Followers[1].SnapshotLoads < 2 {
		t.Fatalf("resume/re-snapshot paths not both taken: %+v", rep.Followers)
	}
}

// TestRunStormProgram replays a small storm through the CLI with its
// bound flags.
func TestRunStormProgram(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{
		"-scenario", "update-burst", "-seed", "5", "-routes", "900",
		"-storm-ops", "200", "-workers", "2", "-lookers", "1", "-probes", "150",
		"-max-dispatch-p99", "-1s", "-max-divert-rate", "-1",
	}, &out, &errw)
	if err != nil {
		t.Fatalf("scenario run: %v\nstderr: %s", err, errw.String())
	}
	var rep chaos.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	if rep.Scenario != "update-burst" || rep.Ops == 0 || rep.WrongAnswers != 0 || !rep.Converged || len(rep.TableHash) != 16 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Contract.MaxDegradedP99 != 0 || rep.Contract.MaxDivertRate != 0 || rep.Contract.MaxConverge == 0 {
		t.Fatalf("negative bound flags did not disable exactly their bounds: %+v", rep.Contract)
	}
}

func isUsage(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

// TestRunUsageErrors pins every invalid invocation to the usage-error
// class (exit 2 in main), distinct from run failures — including the
// negative sizes that used to be accepted silently or, for the batch
// size, never terminate.
func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-routes", "not-a-number"},
		{"-no-such-flag"},
		{"-scenario", "no-such-storm"},
		{"-scenario", "route-leak", "-max-divert-rate", "1.5"},
		{"-scenario", "route-leak", "-mutant", "bit-rot"},
		{"-scenario", "feed-partition", "-sequential"},
		{"-routes", "-1"},
		{"-storm-ops", "-1"},
		{"-workers", "-2"},
		{"-lookers", "-1"},
		{"-checkpoints", "-1"},
		{"-probes", "-1"},
		{"-compare-rebalance", "-lookers", "-1"},
		{"-compare-rebalance", "-scenario", "route-leak"},
		{"-compare-rebalance", "-sequential"},
		{"-compare-rebalance", "-mutant", "drop-withdraw"},
		{"-compare-rebalance", "-repro-dir", "/tmp/x"},
		{"-compare-rebalance", "-max-converge", "5s"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		err := run(args, &out, &errw)
		if err == nil {
			t.Fatalf("%v accepted", args)
		}
		if !isUsage(err) {
			t.Fatalf("%v should be a usage error, got %T: %v", args, err, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%v wrote a report despite the usage error: %s", args, out.String())
		}
	}
}

// TestParseHonoursExplicitValues: a flag left alone stays zero for the
// preset to fill, and an explicit value reaches the options untouched
// even when it equals some other preset's default — `-scenario
// feed-partition -routes 12000` used to run 3000 routes and
// `-compare-rebalance -lookers 4` 120 lookers.
func TestParseHonoursExplicitValues(t *testing.T) {
	for _, c := range []struct {
		args    []string
		want    chaos.Options
		compare bool
	}{
		{nil, chaos.Options{Scenario: tracegen.ScenarioWorkerFaults, Seed: 7}, false},
		{[]string{"-scenario", "feed-partition", "-routes", "12000", "-workers", "4"},
			chaos.Options{Scenario: tracegen.ScenarioFeedPartition, Seed: 7, Routes: 12000, Workers: 4}, false},
		{[]string{"-compare-rebalance", "-lookers", "4", "-routes", "12000", "-seed", "9"},
			chaos.Options{Scenario: tracegen.ScenarioFlashCrowd, Seed: 9, Routes: 12000, Lookers: 4}, true},
		{[]string{"-scenario", "session-reset", "-storm-ops", "50", "-checkpoints", "10", "-probes", "2000", "-lookers", "4",
			"-max-dispatch-p99", "2s", "-max-divert-rate", "-1", "-max-converge", "300ms", "-sequential",
			"-mutant", "drop-withdraw", "-repro-dir", "r"},
			chaos.Options{Scenario: tracegen.ScenarioSessionReset, Seed: 7, StormOps: 50, Checkpoints: 10, Probes: 2000, Lookers: 4,
				MaxDegradedP99: 2e9, MaxDivertRate: -1, MaxConverge: 3e8, Sequential: true,
				Mutant: oracle.MutantDropWithdraw, ReproDir: "r"}, false},
	} {
		got, compare, err := parse(c.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got != c.want || compare != c.compare {
			t.Errorf("%v parsed to\n%+v (compare=%v), want\n%+v (compare=%v)", c.args, got, compare, c.want, c.compare)
		}
	}
	if o, _, err := parse([]string{"-v"}, io.Discard); err != nil || o.Log == nil {
		t.Fatalf("-v did not wire the progress log: %+v %v", o, err)
	}
}

// TestRunMutantExitPath: a planted mutant is a *run* failure (exit 1),
// not a usage error — and the report still reaches stdout so CI can
// archive it.
func TestRunMutantExitPath(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{
		"-scenario", "session-reset", "-seed", "5", "-routes", "800",
		"-workers", "2", "-lookers", "1", "-probes", "100",
		"-max-dispatch-p99", "-1s", "-max-divert-rate", "-1", "-mutant", "drop-withdraw",
	}, &out, &errw)
	if err == nil {
		t.Fatal("mutant run passed")
	}
	if isUsage(err) {
		t.Fatalf("run failure misclassified as usage error: %v", err)
	}
	var rep chaos.Report
	if jerr := json.Unmarshal(out.Bytes(), &rep); jerr != nil {
		t.Fatalf("no report on failure: %v\n%s", jerr, out.String())
	}
	if rep.WrongAnswers == 0 {
		t.Fatalf("mutant not caught mid-storm: %+v, err=%v", rep, err)
	}
}
