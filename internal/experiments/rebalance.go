package experiments

import (
	"fmt"
	"time"

	"clue/internal/chaos"
	"clue/internal/stats"
)

// RebalanceRow is one leg of the closed-loop repartitioning figure.
type RebalanceRow struct {
	Mode          string
	DivertRate    float64
	DispatchP99Ms float64
	Recuts        int64
	MovedRoutes   int64
}

// RebalanceResult is the load-aware repartitioning figure: the fault
// harness's paced flash-crowd comparison (chaos.Compare) — the serve
// runtime under service-paced inverted-Zipf traffic whose hot head
// overloads one home partition, measured with the static even carve and
// with the repartitioning controller. The controller's recut should
// shed the structural diverts the static carve cannot avoid.
type RebalanceResult struct {
	Routes  int
	Workers int
	// CapacityPerSec is each worker's nominal service rate (1/pace);
	// OfferedPerSec the off leg's measured steady-state dispatch rate.
	CapacityPerSec float64
	OfferedPerSec  float64
	Rows           []RebalanceRow
	// Improvement is 1 - on/off steady divert rate.
	Improvement float64
}

// RebalanceClosedLoop runs both legs over the same program and traffic
// seeds. The capacity model is real time (paced workers), so only the
// table scales with Scale. The figure reports the improvement whatever
// it is; holding it to the declared margin is clue-chaos
// -compare-rebalance's job.
func RebalanceClosedLoop(scale Scale) (*RebalanceResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	off, on, err := chaos.Compare(chaos.Options{Seed: scale.Seed + 900, Routes: scale.FIBSize})
	if err != nil {
		return nil, err
	}
	if off.SteadyDispatches == 0 || on.SteadyDispatches == 0 {
		return nil, fmt.Errorf("experiments: rebalance leg measured no dispatches")
	}
	res := &RebalanceResult{
		Routes:         off.Routes,
		Workers:        off.Workers,
		CapacityPerSec: float64(time.Second) / float64(chaos.ServicePace),
		OfferedPerSec:  float64(off.SteadyDispatches) / time.Duration(off.SteadyNs).Seconds(),
	}
	row := func(mode string, leg chaos.Report) RebalanceRow {
		return RebalanceRow{
			Mode:          mode,
			DivertRate:    leg.SteadyDivertRate,
			DispatchP99Ms: leg.DispatchP99Ns / 1e6,
			Recuts:        leg.Rebalance.Recuts,
			MovedRoutes:   leg.Rebalance.MovedRoutes,
		}
	}
	res.Rows = []RebalanceRow{row("static even carve", off), row("rebalancing on", on)}
	res.Improvement, _ = chaos.Improvement(off, on)
	return res, nil
}

// Render produces the figure's table.
func (r *RebalanceResult) Render() string {
	tb := stats.NewTable(
		fmt.Sprintf("Load-aware repartitioning under an inverted-Zipf flash crowd (%d routes, %d workers, %.0f lookups/s capacity each, ~%.0f/s offered)",
			r.Routes, r.Workers, r.CapacityPerSec, r.OfferedPerSec),
		"mode", "steady divert rate", "dispatch p99 (ms)", "recuts", "routes moved",
	)
	for _, row := range r.Rows {
		tb.AddRowf(row.Mode,
			fmt.Sprintf("%.4f", row.DivertRate),
			fmt.Sprintf("%.2f", row.DispatchP99Ms),
			row.Recuts, row.MovedRoutes)
	}
	tb.AddRowf("improvement", fmt.Sprintf("%.3f", r.Improvement), "", "", "")
	return tb.String()
}
