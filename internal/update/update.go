// Package update implements the whole incremental-update pipeline of §IV
// and its TTF (Time To Fresh) cost model: TTF1 is the control-plane trie
// work, TTF2 the TCAM entry writes/moves, TTF3 the redundancy-store
// (DRed/logical cache) maintenance. Two pipelines process the same update
// stream:
//
//   - CLUEPipeline: ONRTC incremental trie update producing a compressed-
//     table diff; TCAM under the disjoint layout (≤1 move per op); DRed
//     maintenance is a single parallel invalidate probe — no control
//     plane.
//   - CLPLPipeline: plain trie update (the paper's TTF1 "ground truth");
//     TCAM under the Shah–Gupta prefix-length-ordered layout (≈15 moves);
//     cache maintenance must walk the SRAM trie around the updated prefix
//     to find and refresh affected RRC-ME expansions.
//
// Costs are deterministic: TCAM accesses are priced at the paper's 24 ns
// (CYNSE70256) and control-plane trie node touches at an SRAM latency
// constant, so runs are reproducible and the figures regenerable.
package update

import (
	"fmt"

	"clue/internal/dred"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/tcam"
	"clue/internal/tracegen"
	"clue/internal/trie"
	"clue/internal/ttf"
)

// The cost model itself lives in internal/ttf, below the simulated
// hardware, so the serving runtime can price updates without importing
// chips and DReds; these are its historical names.
type (
	// CostModel prices the primitive operations.
	CostModel = ttf.CostModel
	// TTF is one update message's Time-To-Fresh breakdown, in nanoseconds.
	TTF = ttf.TTF
)

// DefaultCosts returns the paper-calibrated model.
func DefaultCosts() CostModel { return ttf.DefaultCosts() }

// Pipeline applies routing updates and reports their TTF.
type Pipeline interface {
	// Name identifies the mechanism ("clue" or "clpl").
	Name() string
	// Apply processes one update end to end.
	Apply(u tracegen.Update) (TTF, error)
	// Warm seeds the redundancy stores by simulating lookup hits for the
	// given addresses, so update-time invalidations exercise real
	// content.
	Warm(addrs []ip.Addr)
}

// CLUEPipeline drives trie → compressed TCAM → DRed for the proposed
// mechanism.
type CLUEPipeline struct {
	updater *onrtc.Updater
	chip    *tcam.Chip
	dreds   *dred.Group
	cost    CostModel
}

var _ Pipeline = (*CLUEPipeline)(nil)

// NewCLUEPipeline compresses fib and builds the pipeline around it. The
// fib trie is owned by the pipeline afterwards. caches/cacheSize set the
// DRed group (the paper's 4×1024).
func NewCLUEPipeline(fib *trie.Trie, caches, cacheSize int, cost CostModel) (*CLUEPipeline, error) {
	updater := onrtc.BuildUpdater(fib)
	table := updater.Table()
	// Churn grows the minimal table (fresh routes with new hops break
	// merges), so provision the chip generously, as deployments do.
	chip := tcam.NewChip(table.Len()*4+8192, tcam.NewDisjointLayout())
	if err := chip.Load(table.Routes()); err != nil {
		return nil, fmt.Errorf("update: loading compressed table: %w", err)
	}
	g, err := dred.NewGroup(caches, cacheSize)
	if err != nil {
		return nil, err
	}
	return &CLUEPipeline{updater: updater, chip: chip, dreds: g, cost: cost}, nil
}

// Name implements Pipeline.
func (p *CLUEPipeline) Name() string { return "clue" }

// Chip exposes the TCAM model (tests, ablations).
func (p *CLUEPipeline) Chip() *tcam.Chip { return p.chip }

// Updater exposes the ONRTC updater (tests).
func (p *CLUEPipeline) Updater() *onrtc.Updater { return p.updater }

// DReds exposes the redundancy group (tests).
func (p *CLUEPipeline) DReds() *dred.Group { return p.dreds }

// Warm implements Pipeline: a hit in the compressed table caches the hit
// prefix into the other DReds, exactly as the engine's fill rule does.
// Home assignment is irrelevant to update costs, so hits rotate homes.
func (p *CLUEPipeline) Warm(addrs []ip.Addr) {
	for i, a := range addrs {
		hop, pfx, ok := p.chip.Lookup(a)
		if !ok {
			continue
		}
		p.dreds.InsertExcept(i%p.dreds.N(), ip.Route{Prefix: pfx, NextHop: hop})
	}
	p.chip.ResetStats()
}

// VerifyCoherence checks the cross-store invariants the incremental
// pipeline must preserve through arbitrary churn: the TCAM holds exactly
// the updater's compressed table (TTF2 applied every diff op, none
// dropped or duplicated), the table is pairwise disjoint, and no DRed
// holds an entry the table no longer carries with the same hop (TTF3's
// no-stale-entry-after-withdraw guarantee). The differential oracle
// calls it at every checkpoint.
func (p *CLUEPipeline) VerifyCoherence() error {
	table := p.updater.Table()
	if err := table.VerifyDisjoint(); err != nil {
		return err
	}
	want := table.Routes()
	got := p.chip.Routes()
	if len(got) != len(want) {
		return fmt.Errorf("update: TCAM holds %d routes, compressed table %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("update: TCAM[%d] = %v, compressed table %v", i, got[i], want[i])
		}
	}
	for i := 0; i < p.dreds.N(); i++ {
		for _, r := range p.dreds.Cache(i).Routes() {
			hop := table.Trie().Get(r.Prefix, nil)
			if hop == ip.NoRoute {
				return fmt.Errorf("update: DRed %d holds %v, absent from compressed table", i, r)
			}
			if hop != r.NextHop {
				return fmt.Errorf("update: DRed %d holds %v, table hop is %d", i, r, hop)
			}
		}
	}
	return nil
}

// Apply implements Pipeline.
func (p *CLUEPipeline) Apply(u tracegen.Update) (TTF, error) {
	var diff onrtc.Diff
	switch u.Kind {
	case tracegen.Announce:
		diff = p.updater.Announce(u.Prefix, u.Hop)
	case tracegen.Withdraw:
		diff = p.updater.Withdraw(u.Prefix)
	default:
		return TTF{}, fmt.Errorf("update: unknown kind %v", u.Kind)
	}
	// Trie and DRed are the model's terms; TCAM is overwritten below with
	// what the chip actually spent.
	ttf := p.cost.CLUEBound(diff)

	before := p.chip.Stats()
	for _, op := range diff.Ops {
		var err error
		switch op.Kind {
		case onrtc.OpInsert:
			_, err = p.chip.Insert(op.Route)
		case onrtc.OpDelete:
			_, err = p.chip.Delete(op.Route.Prefix)
		case onrtc.OpModify:
			err = p.chip.Modify(op.Route)
		}
		if err != nil {
			return TTF{}, fmt.Errorf("update: applying %v: %w", op, err)
		}
	}
	after := p.chip.Stats()
	ttf.TCAM = float64(after.UpdateAccesses()-before.UpdateAccesses()) * p.cost.TCAMAccessNs

	// DRed maintenance: inserts need nothing; deletes and modifies are a
	// single probe-and-fix, issued to all DReds in parallel (one access
	// time each op, already priced by CLUEBound).
	for _, op := range diff.Ops {
		switch op.Kind {
		case onrtc.OpDelete:
			p.dreds.Invalidate(op.Route.Prefix)
		case onrtc.OpModify:
			// Refresh the hop where cached.
			for i := 0; i < p.dreds.N(); i++ {
				c := p.dreds.Cache(i)
				if c.Contains(op.Route.Prefix) {
					c.Insert(op.Route)
				}
			}
		}
	}
	return ttf, nil
}
