// Package core integrates the paper's three contributions into one
// operable system — the thing a router vendor would actually deploy:
//
//   - the ONRTC-compressed, non-overlapping table (compression),
//   - the N-TCAM parallel engine with range partitions and reduced
//     dynamic redundancy (lookup),
//   - the incremental update pipeline keeping trie, TCAMs and DReds in
//     sync with announce/withdraw churn, with TTF accounting (update).
//
// The cycle-accurate engine and the update path share the same chips and
// DRed group, so updates immediately affect subsequent lookups, exactly
// as in the paper's architecture (Figure 1 + Figure 6).
package core

import (
	"fmt"

	"clue/internal/dred"
	"clue/internal/engine"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/tcam"
	"clue/internal/trie"
	"clue/internal/update"
)

// Config parameterises a CLUE system. Zero values take the paper's
// defaults.
type Config struct {
	// TCAMs is the number of parallel TCAM chips (default 4).
	TCAMs int
	// Buckets is the number of range partitions the compressed table is
	// split into (default 8 per TCAM, as in Table II).
	Buckets int
	// Mapping assigns buckets to TCAMs (nil = round-robin).
	Mapping []int
	// QueueDepth, DRedSize and LookupClocks configure the engine
	// (defaults 256 / 1024 / 4).
	QueueDepth, DRedSize, LookupClocks int
	// Costs prices update operations for TTF accounting.
	Costs update.CostModel
}

func (c Config) withDefaults() Config {
	if c.TCAMs == 0 {
		c.TCAMs = 4
	}
	if c.Buckets == 0 {
		c.Buckets = 8 * c.TCAMs
	}
	if c.Costs == (update.CostModel{}) {
		c.Costs = update.DefaultCosts()
	}
	return c
}

// System is a running CLUE forwarding engine.
//
// # Concurrency contract
//
// A System is NOT goroutine-safe. Lookup reads the chip state that
// Announce, Withdraw and Rebalance mutate, with no internal locking —
// exactly like the hardware it models, where the control plane owns the
// update bus. Callers must either confine a System to one goroutine or
// provide their own synchronisation. For concurrent serving use a
// serve.Runtime (internal/serve) on the same routes: lock-free lookup
// snapshots (RCU) plus a single writer goroutine over the same ONRTC
// updater, without the simulated chips.
type System struct {
	cfg     Config
	updater *onrtc.Updater
	sys     *engine.CLUESystem
	eng     *engine.Engine
	// holders tracks which chips store each compressed prefix (a merged
	// prefix spanning several buckets lives on every owning chip).
	holders map[ip.Prefix][]int
}

// New builds a CLUE system from the original (possibly overlapping) FIB
// routes: compresses with ONRTC, partitions into even range buckets,
// loads the chips and stands up the engine.
func New(routes []ip.Route, cfg Config) (*System, error) {
	if len(routes) == 0 {
		return nil, fmt.Errorf("core: empty routing table")
	}
	cfg = cfg.withDefaults()
	fib := trie.FromRoutes(routes)
	updater := onrtc.BuildUpdater(fib)
	table := updater.Table()
	if table.Len() < cfg.Buckets {
		return nil, fmt.Errorf("core: compressed table (%d entries) smaller than bucket count %d", table.Len(), cfg.Buckets)
	}
	sys, err := engine.NewCLUESystem(table, cfg.TCAMs, cfg.Buckets, cfg.Mapping)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(sys, engine.Config{
		QueueDepth:   cfg.QueueDepth,
		DRedSize:     cfg.DRedSize,
		LookupClocks: cfg.LookupClocks,
	})
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		updater: updater,
		sys:     sys,
		eng:     eng,
		holders: make(map[ip.Prefix][]int, table.Len()),
	}
	for _, r := range table.Routes() {
		for i := 0; i < cfg.TCAMs; i++ {
			if sys.Chip(i).Contains(r.Prefix) {
				s.holders[r.Prefix] = append(s.holders[r.Prefix], i)
			}
		}
	}
	return s, nil
}

// Lookup resolves addr directly against the home chip — the data-plane
// answer without queueing delay. Use Engine() for cycle-accurate runs.
//
// Lookup is not safe to call concurrently with Announce, Withdraw or
// Rebalance; see the System concurrency contract.
func (s *System) Lookup(addr ip.Addr) (ip.NextHop, bool) {
	hop, _, ok := s.sys.Chip(s.sys.Home(addr)).Lookup(addr)
	return hop, ok
}

// Engine exposes the cycle-driven simulator sharing this system's chips
// and DReds.
func (s *System) Engine() *engine.Engine { return s.eng }

// DReds exposes the dynamic redundancy group.
func (s *System) DReds() *dred.Group { return s.eng.DReds() }

// CompressedRoutes returns a fresh copy of the compressed table in
// ascending address order (disjoint, so strictly ascending ranges); the
// returned slice shares no state with the System.
func (s *System) CompressedRoutes() []ip.Route {
	return s.updater.Table().Routes()
}

// FIBLen returns the original route count; TableLen the compressed count.
func (s *System) FIBLen() int   { return s.updater.FIB().Len() }
func (s *System) TableLen() int { return s.updater.Table().Len() }

// CompressionRatio returns compressed/original.
func (s *System) CompressionRatio() float64 {
	if s.FIBLen() == 0 {
		return 0
	}
	return float64(s.TableLen()) / float64(s.FIBLen())
}

// Chip exposes TCAM i (diagnostics).
func (s *System) Chip(i int) *tcam.Chip { return s.sys.Chip(i) }

// TCAMs returns the chip count.
func (s *System) TCAMs() int { return s.cfg.TCAMs }

// Announce applies a route announcement through the whole pipeline
// (trie → TCAMs → DReds) and returns the update's TTF breakdown.
//
// Announce mutates the trie and chip state and must not run concurrently
// with any other System method; see the System concurrency contract.
func (s *System) Announce(p ip.Prefix, hop ip.NextHop) (update.TTF, error) {
	ttf, _, err := s.AnnounceDiff(p, hop)
	return ttf, err
}

// AnnounceDiff is Announce, additionally returning the compressed-table
// diff the announcement produced.
func (s *System) AnnounceDiff(p ip.Prefix, hop ip.NextHop) (update.TTF, onrtc.Diff, error) {
	if hop == ip.NoRoute {
		return update.TTF{}, onrtc.Diff{}, fmt.Errorf("core: announce %s: next hop must be non-zero", p)
	}
	diff := s.updater.Announce(p, hop)
	ttf, err := s.applyDiff(diff)
	return ttf, diff, err
}

// Withdraw applies a route withdrawal through the whole pipeline.
//
// Withdraw mutates the trie and chip state and must not run concurrently
// with any other System method; see the System concurrency contract.
func (s *System) Withdraw(p ip.Prefix) (update.TTF, error) {
	ttf, _, err := s.WithdrawDiff(p)
	return ttf, err
}

// WithdrawDiff is Withdraw, additionally returning the compressed-table
// diff the withdrawal produced.
func (s *System) WithdrawDiff(p ip.Prefix) (update.TTF, onrtc.Diff, error) {
	diff := s.updater.Withdraw(p)
	ttf, err := s.applyDiff(diff)
	return ttf, diff, err
}

// applyDiff pushes compressed-table ops to the owning chips and fixes the
// DReds. Trie and DRed time are the cost model's terms; TCAM time is what
// the chips actually spent (a prefix replicated on several chips costs
// more than the single-chip bound).
func (s *System) applyDiff(diff onrtc.Diff) (update.TTF, error) {
	ttf := s.cfg.Costs.CLUEBound(diff)
	ttf.TCAM = 0
	for _, op := range diff.Ops {
		accesses, err := s.applyOp(op)
		if err != nil {
			return ttf, err
		}
		ttf.TCAM += float64(accesses) * s.cfg.Costs.TCAMAccessNs
		switch op.Kind {
		case onrtc.OpDelete:
			s.eng.DReds().Invalidate(op.Route.Prefix)
		case onrtc.OpModify:
			for i := 0; i < s.eng.DReds().N(); i++ {
				c := s.eng.DReds().Cache(i)
				if c.Contains(op.Route.Prefix) {
					c.Insert(op.Route)
				}
			}
		}
	}
	return ttf, nil
}

// applyOp performs one op on every chip that owns (or must own) the
// prefix and returns the TCAM accesses consumed.
func (s *System) applyOp(op onrtc.Op) (int64, error) {
	p := op.Route.Prefix
	switch op.Kind {
	case onrtc.OpInsert:
		homes := s.sys.HomesForRange(p.First(), p.Last())
		total := 0
		for _, i := range homes {
			moves, err := s.sys.Chip(i).Insert(op.Route)
			if err != nil {
				return 0, fmt.Errorf("core: chip %d: %w", i, err)
			}
			total += moves + 1
		}
		s.holders[p] = homes
		return int64(total), nil
	case onrtc.OpDelete:
		holders, ok := s.holders[p]
		if !ok {
			return 0, fmt.Errorf("core: delete %s: no holder recorded", p)
		}
		total := 0
		for _, i := range holders {
			moves, err := s.sys.Chip(i).Delete(p)
			if err != nil {
				return 0, fmt.Errorf("core: chip %d: %w", i, err)
			}
			total += moves + 1
		}
		delete(s.holders, p)
		return int64(total), nil
	case onrtc.OpModify:
		holders, ok := s.holders[p]
		if !ok {
			return 0, fmt.Errorf("core: modify %s: no holder recorded", p)
		}
		for _, i := range holders {
			if err := s.sys.Chip(i).Modify(op.Route); err != nil {
				return 0, fmt.Errorf("core: chip %d: %w", i, err)
			}
		}
		return int64(len(holders)), nil
	}
	return 0, fmt.Errorf("core: unknown op kind %v", op.Kind)
}

// Verify exhaustively cross-checks the system's invariants: every chip's
// content is disjoint, the chips' union equals the compressed table, and
// home-chip lookups agree with the control-plane FIB on the probes.
// Intended for tests and examples.
func (s *System) Verify(probes []ip.Addr) error {
	total := 0
	for i := 0; i < s.cfg.TCAMs; i++ {
		chip := s.sys.Chip(i)
		if trie.FromRoutes(chip.Routes()).Overlapping() {
			return fmt.Errorf("core: chip %d stores overlapping prefixes", i)
		}
		total += chip.Len()
	}
	// Replicated straddling prefixes make total >= table len.
	if total < s.TableLen() {
		return fmt.Errorf("core: chips store %d entries, table has %d", total, s.TableLen())
	}
	for _, r := range s.updater.Table().Routes() {
		holders := s.holders[r.Prefix]
		if len(holders) == 0 {
			return fmt.Errorf("core: %s has no holder", r.Prefix)
		}
		for _, i := range holders {
			if !s.sys.Chip(i).Contains(r.Prefix) {
				return fmt.Errorf("core: %s missing from recorded holder %d", r.Prefix, i)
			}
		}
	}
	for _, a := range probes {
		want, _ := s.updater.FIB().Lookup(a, nil)
		got, ok := s.Lookup(a)
		if !ok {
			got = ip.NoRoute
		}
		if got != want {
			return fmt.Errorf("core: lookup(%s) = %d, control plane says %d", a, got, want)
		}
	}
	return nil
}

// RebalanceReport summarises a Rebalance run.
type RebalanceReport struct {
	// Entries is the compressed table size reloaded.
	Entries int
	// MaxBefore and MaxAfter are the largest chip occupancy before and
	// after re-partitioning.
	MaxBefore, MaxAfter int
	// Writes is the TCAM write cost of the full reload.
	Writes int64
}

// Rebalance re-partitions the current compressed table into fresh even
// range buckets and reloads the chips. Update churn erodes partition
// evenness (bucket boundaries are fixed at build time while inserts land
// wherever the address space dictates); a maintenance-window rebalance
// restores it. Queues, DRed contents and engine statistics are reset —
// this models a control-plane table reload, not an incremental update.
func (s *System) Rebalance() (RebalanceReport, error) {
	rep := RebalanceReport{Entries: s.TableLen()}
	for i := 0; i < s.cfg.TCAMs; i++ {
		if used := s.sys.Chip(i).Used(); used > rep.MaxBefore {
			rep.MaxBefore = used
		}
	}
	sys, err := engine.NewCLUESystem(s.updater.Table(), s.cfg.TCAMs, s.cfg.Buckets, s.cfg.Mapping)
	if err != nil {
		return rep, fmt.Errorf("core: rebalance: %w", err)
	}
	eng, err := engine.New(sys, engine.Config{
		QueueDepth:   s.cfg.QueueDepth,
		DRedSize:     s.cfg.DRedSize,
		LookupClocks: s.cfg.LookupClocks,
	})
	if err != nil {
		return rep, fmt.Errorf("core: rebalance: %w", err)
	}
	s.sys, s.eng = sys, eng
	s.holders = make(map[ip.Prefix][]int, s.TableLen())
	for _, r := range s.updater.Table().Routes() {
		for i := 0; i < s.cfg.TCAMs; i++ {
			if sys.Chip(i).Contains(r.Prefix) {
				s.holders[r.Prefix] = append(s.holders[r.Prefix], i)
			}
		}
	}
	for i := 0; i < s.cfg.TCAMs; i++ {
		if used := s.sys.Chip(i).Used(); used > rep.MaxAfter {
			rep.MaxAfter = used
		}
		rep.Writes += int64(s.sys.Chip(i).Used())
	}
	return rep, nil
}
