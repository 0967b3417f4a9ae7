package ttf

import (
	"testing"

	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/trie"
)

func TestCLUEBoundArithmetic(t *testing.T) {
	cost := CostModel{TCAMAccessNs: 10, SRAMAccessNs: 3}
	r := ip.Route{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1}
	op := func(k onrtc.OpKind) onrtc.Op { return onrtc.Op{Kind: k, Route: r} }
	for _, tc := range []struct {
		name string
		diff onrtc.Diff
		want TTF
	}{
		{"no-op", onrtc.Diff{Visits: trie.Visits{Nodes: 4}}, TTF{Trie: 12}},
		{"insert", onrtc.Diff{Ops: []onrtc.Op{op(onrtc.OpInsert)}, Visits: trie.Visits{Nodes: 1}}, TTF{Trie: 3, TCAM: 10}},
		{"delete", onrtc.Diff{Ops: []onrtc.Op{op(onrtc.OpDelete)}}, TTF{TCAM: 20, DRed: 10}},
		{"modify", onrtc.Diff{Ops: []onrtc.Op{op(onrtc.OpModify)}}, TTF{TCAM: 10, DRed: 10}},
		{"split", onrtc.Diff{Ops: []onrtc.Op{op(onrtc.OpDelete), op(onrtc.OpInsert), op(onrtc.OpInsert)}, Visits: trie.Visits{Nodes: 2}},
			TTF{Trie: 6, TCAM: 40, DRed: 10}},
	} {
		if got := cost.CLUEBound(tc.diff); got != tc.want {
			t.Errorf("%s: CLUEBound = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
