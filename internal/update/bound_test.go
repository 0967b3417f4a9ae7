package update

import (
	"testing"

	"clue/internal/onrtc"
	"clue/internal/tracegen"
)

// TestCLUEBoundHoldsOverSimulatedChip is the paper's "one shift at most"
// claim as an executable statement: over a churn stream, the chip-free
// bound equals the simulated pipeline's TTF1 and TTF3 exactly, and its
// TTF2 is never below what the disjoint-layout chip actually spent — an
// insert and a modify cost exactly one access, a delete one or two.
func TestCLUEBoundHoldsOverSimulatedChip(t *testing.T) {
	cost := DefaultCosts()
	pipe, err := NewCLUEPipeline(genFIB(t, 5000, 31), 4, 1024, cost)
	if err != nil {
		t.Fatal(err)
	}
	// An independent updater over the same FIB yields the same diffs.
	upd := onrtc.BuildUpdater(genFIB(t, 5000, 31))
	tight := 0
	for i, u := range updateStream(t, genFIB(t, 5000, 31), 5000, 32) {
		got, err := pipe.Apply(u)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		var diff onrtc.Diff
		if u.Kind == tracegen.Announce {
			diff = upd.Announce(u.Prefix, u.Hop)
		} else {
			diff = upd.Withdraw(u.Prefix)
		}
		bound := cost.CLUEBound(diff)
		if bound.Trie != got.Trie || bound.DRed != got.DRed {
			t.Fatalf("op %d (%v %s): bound %+v, pipeline %+v: TTF1/TTF3 differ", i, u.Kind, u.Prefix, bound, got)
		}
		deletes := 0
		for _, op := range diff.Ops {
			if op.Kind == onrtc.OpDelete {
				deletes++
			}
		}
		slack := bound.TCAM - got.TCAM
		if slack < 0 || slack > float64(deletes)*cost.TCAMAccessNs {
			t.Fatalf("op %d (%v %s): bound TTF2 %.0f, chip spent %.0f with %d deletes", i, u.Kind, u.Prefix, bound.TCAM, got.TCAM, deletes)
		}
		if slack == 0 && len(diff.Ops) > 0 {
			tight++
		}
	}
	if tight == 0 {
		t.Fatal("bound never met the chip's count: the comparison is vacuous")
	}
}
