// Command clue-chaos runs one program of the fault harness
// (internal/chaos) and prints its report as JSON on stdout.
//
// Usage:
//
//	clue-chaos [-scenario worker-faults] [-seed 7] [-routes N] [-storm-ops N]
//	           [-workers N] [-lookers N] [-checkpoints N] [-probes N]
//	           [-max-dispatch-p99 D] [-max-divert-rate R] [-max-converge D]
//	           [-sequential] [-mutant none] [-repro-dir DIR] [-v]
//	clue-chaos -compare-rebalance [-seed 7] [-routes N] [-workers N] [-lookers N] [-v]
//
// -scenario names the program (internal/tracegen): the four control-plane
// storms session-reset, route-leak, update-burst and flash-crowd;
// worker-faults, which kills, poisons, stalls, recovers and recuts
// partition workers under churn; and feed-partition, which replicates the
// churn through a collector to two followers while links are cut (briefly
// and beyond the replay window), an apply pipeline stalls and the
// collector restarts. Every program runs under its phases' lookup
// traffic with mid-program oracle checkpoints on every serving runtime
// and is held to its declared contract: bounded degraded-mode dispatch
// p99, bounded divert rate and bounded time-to-converge (first
// canonical-table-hash match after the storm). The bound flags override
// the contract; 0 keeps the program's bound and a negative value
// disables it. Every size flag left at 0 takes the program's preset
// default; an explicit value is always honoured.
//
// -sequential applies updates one at a time and verifies TTF replay
// equivalence; -mutant plants a deliberate oracle defect (self-test);
// -repro-dir writes a shrunk JSON reproducer when the run fails.
//
// -compare-rebalance replays flash-crowd twice under service-paced
// pressure traffic — repartitioning off, then on — and fails unless the
// controller recut and improved the steady-state divert rate by 20%,
// with the off leg required to show real divert pressure so the contract
// cannot pass vacuously.
//
// Exit status: 0 on a passing run, 1 when the run failed an invariant
// or its contract, 2 on a usage error (unknown flag or scenario,
// negative size, contradictory bounds, incompatible mode combinations).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"clue/internal/chaos"
	"clue/internal/oracle"
	"clue/internal/tracegen"
)

// usageError marks errors that indicate the invocation itself is wrong
// (exit 2), as opposed to a run that failed (exit 1).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "clue-chaos:", err)
		var ue usageError
		if errors.As(err, &ue) || errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// parse turns the command line into the harness options, untouched by
// any default: what a flag did not set stays zero for the preset to fill.
func parse(args []string, errw io.Writer) (o chaos.Options, compare bool, err error) {
	fs := flag.NewFlagSet("clue-chaos", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&o.Scenario, "scenario", tracegen.ScenarioWorkerFaults, fmt.Sprintf("program to replay %v", tracegen.ScenarioNames()))
	fs.Int64Var(&o.Seed, "seed", 7, "seed for the program, the probes and the traffic")
	fs.IntVar(&o.Routes, "routes", 0, "base FIB size (0 = preset default)")
	fs.IntVar(&o.StormOps, "storm-ops", 0, "storm size where drawn from the churn generator (0 = program default)")
	fs.IntVar(&o.Workers, "workers", 0, "partition worker count per runtime (0 = preset default)")
	fs.IntVar(&o.Lookers, "lookers", 0, "concurrent lookup goroutines (0 = preset default)")
	fs.IntVar(&o.Checkpoints, "checkpoints", 0, "oracle checkpoints per phase (0 = default 3)")
	fs.IntVar(&o.Probes, "probes", 0, "random probes per checkpoint (0 = default 800)")
	fs.DurationVar(&o.MaxDegradedP99, "max-dispatch-p99", 0, "bound on the run's dispatch p99 (0 = contract default, negative disables)")
	fs.Float64Var(&o.MaxDivertRate, "max-divert-rate", 0, "bound on diverted/dispatched (0 = contract default, negative disables)")
	fs.DurationVar(&o.MaxConverge, "max-converge", 0, "bound on time-to-converge after the storm (0 = contract default, negative disables)")
	fs.BoolVar(&o.Sequential, "sequential", false, "apply ops one at a time and verify TTF replay equivalence")
	mutant := fs.String("mutant", "none", "plant an oracle defect for self-tests (none, drop-withdraw, shortest-match)")
	fs.StringVar(&o.ReproDir, "repro-dir", "", "write a shrunk JSON reproducer here when the run fails")
	fs.BoolVar(&compare, "compare-rebalance", false, "run the paired flash-crowd rebalance comparison (off vs on)")
	verbose := fs.Bool("v", false, "log faults and checkpoints to stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return o, compare, err
		}
		return o, compare, usageError{err.Error()}
	}
	if *verbose {
		o.Log = errw
	}
	for _, m := range []oracle.Mutant{oracle.MutantNone, oracle.MutantDropWithdraw, oracle.MutantShortestMatch} {
		if *mutant == m.String() {
			o.Mutant = m
		}
	}
	if *mutant != o.Mutant.String() {
		return o, compare, usageError{fmt.Sprintf("unknown -mutant %q (known: none, drop-withdraw, shortest-match)", *mutant)}
	}
	if compare {
		// The comparison is its own preset: the program, the bounds and the
		// topology are fixed, and it writes no reproducer.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "compare-rebalance", "seed", "routes", "workers", "lookers", "checkpoints", "probes", "v":
			default:
				err = usageError{fmt.Sprintf("-compare-rebalance excludes -%s", f.Name)}
			}
		})
		o.Scenario = tracegen.ScenarioFlashCrowd
	}
	if err == nil {
		if verr := o.Validate(); verr != nil {
			err = usageError{verr.Error()}
		}
	}
	return o, compare, err
}

func run(args []string, out, errw io.Writer) error {
	o, compare, err := parse(args, errw)
	if err != nil {
		return err
	}
	var doc any
	if compare {
		res := struct {
			Off         chaos.Report `json:"off"`
			On          chaos.Report `json:"on"`
			Improvement float64      `json:"improvement"`
		}{}
		if res.Off, res.On, err = chaos.Compare(o); err == nil {
			res.Improvement, err = chaos.Improvement(res.Off, res.On)
		}
		doc = res
	} else {
		doc, err = chaos.Run(o)
	}
	buf, jerr := json.MarshalIndent(doc, "", "  ")
	if jerr != nil {
		return jerr
	}
	fmt.Fprintln(out, string(buf))
	return err
}
