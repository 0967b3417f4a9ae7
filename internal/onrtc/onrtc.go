// Package onrtc implements the ONRTC algorithm ("Optimal Non-overlap
// Routing Table Construction", Yang et al., ICC 2012) that CLUE adopts as
// its compression stage, together with the incremental update algorithm
// that keeps the compressed table non-overlapping under announce/withdraw
// churn and emits the per-update TCAM diff.
//
// # Construction
//
// For a fixed longest-prefix-match function the minimal *disjoint*
// representation is forced: conceptually leaf-push every route's next hop
// down the trie, then merge sibling regions that carry the same hop,
// bottom-up. Each emitted prefix is a maximal uniform prefix-aligned
// region of the forwarding function; uncovered space must stay uncovered
// (covering it would create matches the original table did not have), so
// disjointness removes the hop-choice freedom ORTC exploits, and the
// resulting table is both minimal and unique. Compression relative to the
// original FIB comes from redundant more-specific routes collapsing into
// their ancestors and from same-hop sibling merges.
//
// The construction runs in one post-order pass over the FIB trie without
// materialising the leaf-pushed expansion.
//
// # Incremental update
//
// An announce or withdraw of prefix p only changes the forwarding function
// inside p. The updater re-derives the minimal representation for the
// smallest enclosing region whose representation can change (p itself, or
// the compressed route that covered p), then extends the region upward
// while newly-uniform halves allow sibling merges. The result is a small
// diff of insert/delete/modify operations against the compressed table —
// exactly the operations the data plane must apply to TCAM.
package onrtc

import (
	"fmt"

	"clue/internal/ip"
	"clue/internal/trie"
)

// OpKind classifies a compressed-table diff operation.
type OpKind uint8

const (
	// OpInsert adds a new prefix to the compressed table.
	OpInsert OpKind = iota + 1
	// OpDelete removes a prefix from the compressed table.
	OpDelete
	// OpModify rewrites the next hop of an existing prefix in place.
	OpModify
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpModify:
		return "modify"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one compressed-table change. For OpDelete, Route.NextHop is the
// hop being removed (so DRed caches can invalidate by prefix).
type Op struct {
	Kind  OpKind
	Route ip.Route
}

// String renders the op for logs and debugging.
func (o Op) String() string { return fmt.Sprintf("%s %s", o.Kind, o.Route) }

// Table is the compressed, non-overlapping routing table. It supports
// lookup and is kept in sync with the FIB by Updater.
type Table struct {
	comp *trie.Trie
	// sum is the table's Digest, kept in step by insert and remove — the
	// only two mutators of comp.
	sum uint64
}

// Compress builds the optimal non-overlapping table for the routes in fib.
// The input trie is not modified.
func Compress(fib *trie.Trie) *Table {
	t := &Table{comp: trie.New()}
	region := compressRegion(fib, ip.Prefix{}, nil)
	if region.uniform {
		if region.hop != ip.NoRoute {
			t.insert(ip.Prefix{}, region.hop)
		}
	} else {
		for _, r := range region.routes {
			t.insert(r.Prefix, r.NextHop)
		}
	}
	return t
}

// insert adds or rewrites one compressed route, moving the digest from
// the route's previous hop (if any) to hop.
func (t *Table) insert(p ip.Prefix, hop ip.NextHop) {
	if prev := t.comp.Insert(p, hop, nil); prev != ip.NoRoute {
		t.sum -= routeMix(p, prev)
	}
	t.sum += routeMix(p, hop)
}

// remove deletes one compressed route and its digest term; an absent
// prefix changes nothing.
func (t *Table) remove(p ip.Prefix) {
	if prev := t.comp.Delete(p, nil); prev != ip.NoRoute {
		t.sum -= routeMix(p, prev)
	}
}

// Digest returns the table's canonical digest in O(1): the same value
// Digest(t.Routes()) recomputes from scratch.
func (t *Table) Digest() uint64 { return t.sum }

// Len returns the number of prefixes in the compressed table.
func (t *Table) Len() int { return t.comp.Len() }

// Routes returns the compressed routes in inorder (ascending address),
// the order the CLUE partition algorithm consumes.
func (t *Table) Routes() []ip.Route { return t.comp.Routes() }

// Lookup returns the next hop for addr. Because the table is disjoint, at
// most one prefix matches; no longest-prefix tie-break is needed.
func (t *Table) Lookup(addr ip.Addr, v *trie.Visits) (ip.NextHop, ip.Prefix) {
	return t.comp.Lookup(addr, v)
}

// Trie exposes the underlying compressed trie for partitioning and
// verification. Callers must treat it as read-only.
func (t *Table) Trie() *trie.Trie { return t.comp }

// VerifyDisjoint checks the table's core structural invariant: no two
// compressed prefixes overlap. Because prefixes are aligned blocks, two
// prefixes overlap exactly when one covers the other, and a prefix
// starting inside another's block necessarily overlaps it — so in
// ascending address order, adjacent-pair checks decide pairwise
// disjointness in O(n).
func (t *Table) VerifyDisjoint() error {
	return VerifyDisjoint(t.Routes())
}

// VerifyDisjoint checks an ascending route list for overlapping
// prefixes (the standalone form, for callers holding a table dump such
// as a serve snapshot rather than a *Table).
func VerifyDisjoint(routes []ip.Route) error {
	for i := 1; i < len(routes); i++ {
		prev, cur := routes[i-1].Prefix, routes[i].Prefix
		if cur.First() < prev.First() {
			return fmt.Errorf("onrtc: routes out of order: %v before %v", routes[i-1], routes[i])
		}
		if prev.Last() >= cur.First() {
			return fmt.Errorf("onrtc: overlapping routes %v and %v", routes[i-1], routes[i])
		}
	}
	return nil
}

// region is the result of compressing one prefix-aligned block: either the
// whole block is uniform (one hop, possibly NoRoute), or it is mixed and
// routes holds its minimal disjoint representation.
type region struct {
	uniform bool
	hop     ip.NextHop
	routes  []ip.Route
}

// compressRegion computes the minimal disjoint representation of the
// forwarding function restricted to prefix p, reading the FIB subtree at p.
// Node visits are charged to v (the control plane walks its SRAM trie).
func compressRegion(fib *trie.Trie, p ip.Prefix, v *trie.Visits) region {
	node, inh := fib.FindWithCover(p, v)
	var out []ip.Route
	hop, uniform := compressNode(node, p, inh, &out, v)
	if uniform {
		return region{uniform: true, hop: hop}
	}
	return region{routes: out}
}

// compressNode is the post-order merge. It returns the region's uniform
// hop when the whole block forwards identically, or uniform=false after
// appending the block's minimal representation to out. A nil node means
// the block contains no more-specific routes and inherits inh wholesale.
func compressNode(n *trie.Node, p ip.Prefix, inh ip.NextHop, out *[]ip.Route, v *trie.Visits) (ip.NextHop, bool) {
	if n == nil {
		return inh, true
	}
	if v != nil {
		v.Nodes++
	}
	if n.Hop != ip.NoRoute {
		inh = n.Hop
	}
	if n.IsLeaf() {
		return inh, true
	}
	lHop, lUni := compressNode(n.Children[0], p.Child(0), inh, out, v)
	rHop, rUni := compressNode(n.Children[1], p.Child(1), inh, out, v)
	if lUni && rUni && lHop == rHop {
		return lHop, true
	}
	if lUni && lHop != ip.NoRoute {
		*out = append(*out, ip.Route{Prefix: p.Child(0), NextHop: lHop})
	}
	if rUni && rHop != ip.NoRoute {
		*out = append(*out, ip.Route{Prefix: p.Child(1), NextHop: rHop})
	}
	return ip.NoRoute, false
}

// LeafPush returns the plain leaf-pushed table (controlled prefix
// expansion pushed to trie leaves, Srinivasan & Varghese) without sibling
// merging. It is the non-overlap baseline ONRTC improves on: disjoint but
// expanded rather than compressed.
func LeafPush(fib *trie.Trie) []ip.Route {
	var out []ip.Route
	leafPush(fib.Root(), ip.Prefix{}, ip.NoRoute, &out)
	return out
}

func leafPush(n *trie.Node, p ip.Prefix, inh ip.NextHop, out *[]ip.Route) {
	if n == nil {
		if inh != ip.NoRoute {
			*out = append(*out, ip.Route{Prefix: p, NextHop: inh})
		}
		return
	}
	if n.Hop != ip.NoRoute {
		inh = n.Hop
	}
	if n.IsLeaf() {
		if inh != ip.NoRoute {
			*out = append(*out, ip.Route{Prefix: p, NextHop: inh})
		}
		return
	}
	leafPush(n.Children[0], p.Child(0), inh, out)
	leafPush(n.Children[1], p.Child(1), inh, out)
}

// regionUniform inspects the compressed trie and reports whether block q
// forwards uniformly, and with which hop. It relies on two invariants of
// the compressed trie: routes are disjoint, and non-root nodes exist only
// on paths to routes. q must not be the default route.
func (t *Table) regionUniform(q ip.Prefix, v *trie.Visits) (ip.NextHop, bool) {
	n := t.comp.Root()
	if v != nil {
		v.Nodes++
	}
	for depth := 0; depth < int(q.Len); depth++ {
		if n.Hop != ip.NoRoute {
			// A route above q covers all of q.
			return n.Hop, true
		}
		n = n.Children[q.Bits.Bit(depth)]
		if n == nil {
			// No route intersects q at all.
			return ip.NoRoute, true
		}
		if v != nil {
			v.Nodes++
		}
	}
	if n.Hop != ip.NoRoute {
		// Disjointness plus path pruning imply n is a leaf.
		return n.Hop, true
	}
	// Routes exist strictly below q on at least one side; q is mixed
	// (a single deeper route leaves the rest of q uncovered).
	return ip.NoRoute, false
}

// collectRegion returns the compressed routes lying within block q.
func (t *Table) collectRegion(q ip.Prefix, v *trie.Visits) []ip.Route {
	n := t.comp.Find(q, v)
	if n == nil {
		return nil
	}
	var out []ip.Route
	collect(n, &out, v)
	return out
}

func collect(n *trie.Node, out *[]ip.Route, v *trie.Visits) {
	if n == nil {
		return
	}
	if v != nil {
		v.Nodes++
	}
	if n.Hop != ip.NoRoute {
		*out = append(*out, ip.Route{Prefix: n.Prefix, NextHop: n.Hop})
	}
	collect(n.Children[0], out, v)
	collect(n.Children[1], out, v)
}

// Stats summarises a compression run for reporting (Figure 8).
type Stats struct {
	// Original is the FIB route count before compression.
	Original int
	// Compressed is the route count of the ONRTC output.
	Compressed int
	// LeafPushed is the route count of the naive leaf-pushing baseline.
	LeafPushed int
	// ORTC is the route count of the classic overlap-allowed optimum
	// (Draves et al.), or 0 when the hop space exceeds the mask width.
	ORTC int
}

// Ratio returns Compressed/Original, the paper's headline ≈0.71.
func (s Stats) Ratio() float64 {
	if s.Original == 0 {
		return 0
	}
	return float64(s.Compressed) / float64(s.Original)
}

// ExpansionRatio returns LeafPushed/Original, showing why plain
// leaf-pushing (the only prior total-overlap-elimination technique) is not
// good enough.
func (s Stats) ExpansionRatio() float64 {
	if s.Original == 0 {
		return 0
	}
	return float64(s.LeafPushed) / float64(s.Original)
}

// ORTCRatio returns ORTC/Original — the bound overlap-allowed
// compression achieves, always at or below Ratio.
func (s Stats) ORTCRatio() float64 {
	if s.Original == 0 {
		return 0
	}
	return float64(s.ORTC) / float64(s.Original)
}

// CompressWithStats compresses fib and reports size statistics alongside,
// including both baselines (leaf-pushing expansion and classic ORTC).
func CompressWithStats(fib *trie.Trie) (*Table, Stats) {
	t := Compress(fib)
	st := Stats{
		Original:   fib.Len(),
		Compressed: t.Len(),
		LeafPushed: len(LeafPush(fib)),
	}
	if ortcRoutes, ok := ORTC(fib); ok {
		st.ORTC = len(ortcRoutes)
	}
	return t, st
}
