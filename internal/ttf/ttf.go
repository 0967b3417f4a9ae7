// Package ttf is the paper's TTF (Time To Fresh) cost model, free of any
// simulated hardware: the TTF1/TTF2/TTF3 breakdown, the prices of the
// primitive operations, and the bound a disjoint compressed table puts
// on one update. It sits below both the serving runtime (internal/serve),
// which reports the bound, and the update pipelines (internal/update,
// internal/core), which replace TTF2 with what their simulated chips
// measured; internal/update re-exports the types under their historical
// names.
package ttf

import "clue/internal/onrtc"

// CostModel prices the primitive operations.
type CostModel struct {
	// TCAMAccessNs is one TCAM entry write or move (paper: 24 ns).
	TCAMAccessNs float64
	// SRAMAccessNs is one control-plane trie node touch.
	SRAMAccessNs float64
}

// DefaultCosts returns the paper-calibrated model: the CYNSE70256's
// 24 ns per TCAM access (the same figure as tcam.AccessNs, which
// internal/update's tests pin equal) and an SRAM latency constant.
func DefaultCosts() CostModel {
	return CostModel{TCAMAccessNs: 24, SRAMAccessNs: 6}
}

// CLUEBound prices a compressed-table diff without any chip state — the
// paper's bound for a disjoint table: TTF1 is the trie nodes touched;
// TTF2 one access per insert (append) or modify (in-place write) and two
// per delete (valid-bit clear plus the single shift that refills the
// slot); TTF3 one parallel DRed probe per delete or modify. Only TTF2
// can differ from what a simulated chip measures, and only downward: a
// delete of the last slot needs no shift.
func (c CostModel) CLUEBound(d onrtc.Diff) TTF {
	var tcamAcc, dredAcc float64
	for _, op := range d.Ops {
		switch op.Kind {
		case onrtc.OpInsert:
			tcamAcc++
		case onrtc.OpDelete:
			tcamAcc += 2
			dredAcc++
		case onrtc.OpModify:
			tcamAcc++
			dredAcc++
		}
	}
	return TTF{
		Trie: float64(d.Visits.Nodes) * c.SRAMAccessNs,
		TCAM: tcamAcc * c.TCAMAccessNs,
		DRed: dredAcc * c.TCAMAccessNs,
	}
}

// TTF is one update message's Time-To-Fresh breakdown, in nanoseconds.
type TTF struct {
	// Trie is TTF1: control-plane computation.
	Trie float64
	// TCAM is TTF2: data-plane table maintenance.
	TCAM float64
	// DRed is TTF3: redundancy-store maintenance.
	DRed float64
}

// Total returns TTF1+TTF2+TTF3.
func (t TTF) Total() float64 { return t.Trie + t.TCAM + t.DRed }

// Add returns the element-wise sum (aggregation helper).
func (t TTF) Add(o TTF) TTF {
	return TTF{Trie: t.Trie + o.Trie, TCAM: t.TCAM + o.TCAM, DRed: t.DRed + o.DRed}
}

// Scale returns the element-wise scaling (averaging helper).
func (t TTF) Scale(f float64) TTF {
	return TTF{Trie: t.Trie * f, TCAM: t.TCAM * f, DRed: t.DRed * f}
}
