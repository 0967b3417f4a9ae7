package chaos

import (
	"fmt"
	"time"

	"clue/internal/tracegen"
)

// The rebalance comparison's capacity model. ServicePace gives each
// worker a fixed service rate (the software stand-in for a TCAM chip),
// and the paced lookers offer semi-open-loop load tuned so the aggregate
// (~1500/s) fits inside the total capacity (4×500/s) while flash-crowd's
// inverted-Zipf head (~38% on one partition) overloads its home. Divert
// pressure is then a property of the carve, not of host scheduling — it
// stays meaningful on a single-CPU host, where unpaced workers share one
// core and per-partition overload cannot exist.
const (
	// ServicePace is the per-address worker service time of a paced run.
	ServicePace = 2 * time.Millisecond
	// pacedQueueDepth is shallow, so an overloaded home shows up as
	// diverts within tens of milliseconds, but deep enough that ordinary
	// near-capacity queueing noise stays clear of the structural signal.
	pacedQueueDepth = 6
	pacedLookers    = 120
	pacedThink      = 80 * time.Millisecond
	// The controller passes often enough to drain a meaningful sketch
	// sample each time and may move enough to converge inside pacedAdapt.
	pacedRebalanceEvery = 500 * time.Millisecond
	pacedMaxMove        = 0.5
	// pacedWarm seeds the sketches with the pre-flip popularity;
	// pacedAdapt is the controller's convergence budget (~7 passes)
	// before the pacedMeasure steady-state window opens.
	pacedWarm    = 1200 * time.Millisecond
	pacedAdapt   = 3500 * time.Millisecond
	pacedMeasure = 1500 * time.Millisecond
	// minImprovement is the declared contract margin; minOffDivert the
	// pressure floor under which the comparison is inconclusive.
	minImprovement = 0.2
	minOffDivert   = 0.02
)

// hold keeps a paced run's traffic flowing after a phase's updates: the
// warmup before the storm, and after the storm the adapt window followed
// by the measurement window whose dispatch counters become the report's
// steady-state divert rate.
func (h *harness) hold(pi, storm int, rep *Report) {
	switch {
	case pi < storm:
		time.Sleep(pacedWarm)
	case pi == storm:
		time.Sleep(pacedAdapt)
		start := time.Now()
		disp0, div0 := h.load()
		time.Sleep(pacedMeasure)
		disp1, div1 := h.load()
		rep.SteadyNs = time.Since(start).Nanoseconds()
		rep.SteadyDispatches = disp1 - disp0
		rep.SteadyDivertRate = ratio(div1-div0, disp1-disp0)
	}
}

// Compare replays the flash-crowd program twice over the identical seed
// under the paced capacity model — once on the static even carve, once
// with the load-aware repartitioning controller on — and returns both
// legs' reports. Improvement judges them; the program's own latency and
// divert bounds do not apply to deliberately overloaded queues.
func Compare(o Options) (off, on Report, err error) {
	o.Scenario, o.paced = tracegen.ScenarioFlashCrowd, true
	o.MaxDegradedP99, o.MaxDivertRate = -1, -1
	o.logf("rebalance compare: flash-crowd seed %d — off leg", o.Seed)
	if off, err = Run(o); err != nil {
		return off, on, fmt.Errorf("chaos: rebalance compare off leg: %w", err)
	}
	o.logf("rebalance compare: off steady divert %.3f over %d dispatches — on leg", off.SteadyDivertRate, off.SteadyDispatches)
	o.rebalance = true
	if on, err = Run(o); err != nil {
		return off, on, fmt.Errorf("chaos: rebalance compare on leg: %w", err)
	}
	o.logf("rebalance compare: on steady divert %.3f after %d recuts (%d routes moved)",
		on.SteadyDivertRate, on.Rebalance.Recuts, on.Rebalance.MovedRoutes)
	return off, on, nil
}

// Improvement is the comparison's verdict: 1 - on/off steady-state
// divert rate (1 when the on leg diverted nothing, negative when it
// regressed), and the contract — the off leg must have produced real
// divert pressure so the assertion can never pass vacuously, the
// controller must actually have recut, and the rate must have improved
// by the declared margin.
func Improvement(off, on Report) (float64, error) {
	var imp float64
	if off.SteadyDivertRate > 0 {
		imp = 1 - on.SteadyDivertRate/off.SteadyDivertRate
	}
	switch {
	case off.SteadyDispatches == 0 || on.SteadyDispatches == 0:
		return imp, fmt.Errorf("chaos: rebalance compare: no dispatches landed in a measurement window (off %d, on %d)",
			off.SteadyDispatches, on.SteadyDispatches)
	case off.SteadyDivertRate < minOffDivert:
		return imp, fmt.Errorf("chaos: rebalance compare inconclusive: off-leg steady divert rate %.4f below the %.4f pressure floor — the workload never stressed the static carve",
			off.SteadyDivertRate, minOffDivert)
	case on.Rebalance.Recuts == 0:
		return imp, fmt.Errorf("chaos: rebalance compare: the controller never recut under the flash crowd (skips: %d)", on.Rebalance.Skips)
	case imp < minImprovement:
		return imp, fmt.Errorf("chaos: rebalance contract failed: on-leg steady divert rate %.4f is not %.0f%% below the off-leg's %.4f (improvement %.3f)",
			on.SteadyDivertRate, minImprovement*100, off.SteadyDivertRate, imp)
	}
	return imp, nil
}
