package onrtc

import (
	"clue/internal/ip"
	"clue/internal/trie"
)

// Diff is the outcome of applying one routing update: the control-plane
// trie work performed (Visits, priced as SRAM accesses for TTF1) and the
// compressed-table operations the data plane must apply to TCAM (TTF2)
// and to the DRed caches (TTF3).
type Diff struct {
	// Ops are the compressed-table changes, already applied to the
	// Updater's table. The table is disjoint, so replay order cannot
	// make an unrelated entry match wrongly.
	Ops []Op
	// Visits counts control-plane trie node touches for this update.
	Visits trie.Visits
}

// Updater maintains a FIB trie and its ONRTC-compressed table in lockstep,
// translating announce/withdraw messages into minimal compressed-table
// diffs.
//
// The update algorithm is path-local, which is what makes TTF1 cheap: an
// update at prefix p touches the FIB path to p, the FIB subtree under p,
// the compressed-trie path to p and the compressed routes inside p — never
// a full covering region. Two cases:
//
//   - A compressed route c strictly covers p ("split" case): c's whole
//     block forwarded uniformly, so the new representation is c's hop on
//     the sibling chain between c and p plus the re-derived representation
//     of p itself. If p still forwards as c did, nothing changes at all.
//   - No compressed route covers p ("local" case): the routes inside p
//     are replaced by p's re-derived representation; if that is a single
//     route, it may merge upward with uniform same-hop sibling blocks,
//     cascading toward the root (each step retiring one sibling route).
type Updater struct {
	fib   *trie.Trie
	table *Table
}

// NewUpdater wraps an existing FIB and its compressed table. The table
// must have been produced by Compress on exactly this FIB; both are owned
// by the updater afterwards.
func NewUpdater(fib *trie.Trie, table *Table) *Updater {
	return &Updater{fib: fib, table: table}
}

// BuildUpdater compresses fib and returns an updater managing both. The
// fib trie is owned by the updater afterwards.
func BuildUpdater(fib *trie.Trie) *Updater {
	return &Updater{fib: fib, table: Compress(fib)}
}

// FIB returns the managed original-route trie (read-only for callers).
func (u *Updater) FIB() *trie.Trie { return u.fib }

// Table returns the managed compressed table (read-only for callers).
func (u *Updater) Table() *Table { return u.table }

// Announce applies a route announcement (new route or next-hop change)
// and returns the compressed-table diff.
func (u *Updater) Announce(p ip.Prefix, hop ip.NextHop) Diff {
	var d Diff
	prev, node, inh := u.fib.InsertWithCover(p, hop, &d.Visits)
	if prev == hop {
		// Idempotent re-announcement: the forwarding function is
		// unchanged, so the compressed table is too.
		return d
	}
	u.refresh(p, node, inh, &d)
	return d
}

// Withdraw applies a route withdrawal and returns the compressed-table
// diff. Withdrawing an absent prefix is a no-op.
func (u *Updater) Withdraw(p ip.Prefix) Diff {
	var d Diff
	prev, node, inh := u.fib.DeleteWithCover(p, &d.Visits)
	if prev == ip.NoRoute {
		return d
	}
	u.refresh(p, node, inh, &d)
	return d
}

// refresh re-derives the compressed representation around p after the FIB
// changed inside p, emits the diff ops and applies them to the table.
// node is the FIB node at p (nil when empty) and inh the hop p inherits
// from its FIB ancestors, both captured during the update walk itself.
func (u *Updater) refresh(p ip.Prefix, node *trie.Node, inh ip.NextHop, d *Diff) {
	var fresh []ip.Route
	hop, uniform := compressNode(node, p, inh, &fresh, &d.Visits)
	if uniform {
		fresh = nil
		if hop != ip.NoRoute {
			fresh = []ip.Route{{Prefix: p, NextHop: hop}}
		}
	}

	// Find what the compressed table currently says about p: either a
	// strictly covering route (split case) or the routes inside p. The
	// walked path doubles as the merge phase's sibling probe.
	cover, coverHop, path := u.coveringCompRoute(p, &d.Visits)
	if coverHop != ip.NoRoute && cover.Len < p.Len {
		u.splitCover(p, cover, coverHop, fresh, uniform, hop, d)
	} else {
		u.localReplace(p, path, fresh, uniform, hop, d)
	}

	for _, op := range d.Ops {
		switch op.Kind {
		case OpInsert, OpModify:
			u.table.insert(op.Route.Prefix, op.Route.NextHop)
		case OpDelete:
			u.table.remove(op.Route.Prefix)
		}
	}
}

// splitCover handles an update under a compressed route c that strictly
// covers p. If p's region still forwards uniformly as c does, nothing
// changes. Otherwise c splits: c is deleted, c's hop is re-emitted on the
// sibling chain between c and p, and p's new representation fills p.
// The split leaves region c mixed, so no upward merge is possible.
func (u *Updater) splitCover(p, cover ip.Prefix, coverHop ip.NextHop, fresh []ip.Route, uniform bool, hop ip.NextHop, d *Diff) {
	if uniform && hop == coverHop {
		return
	}
	d.Ops = append(d.Ops, Op{Kind: OpDelete, Route: ip.Route{Prefix: cover, NextHop: coverHop}})
	// Walk from cover down to p, covering each off-path sibling with
	// c's hop.
	for q := p; q.Len > cover.Len; q = q.Parent() {
		d.Ops = append(d.Ops, Op{Kind: OpInsert, Route: ip.Route{Prefix: q.Sibling(), NextHop: coverHop}})
	}
	for _, r := range fresh {
		d.Ops = append(d.Ops, Op{Kind: OpInsert, Route: r})
	}
}

// localReplace handles an update with no covering compressed route: the
// compressed routes inside p (rooted at the walked path's last node) are
// replaced by p's new representation; a uniform single-route result may
// then merge upward through same-hop sibling blocks. path holds the
// compressed-trie nodes from the root toward p (it may stop early), so
// each sibling probe is a single child access instead of a root walk.
func (u *Updater) localReplace(p ip.Prefix, path []*trie.Node, fresh []ip.Route, uniform bool, hop ip.NextHop, d *Diff) {
	var old []ip.Route
	if len(path) == int(p.Len)+1 {
		collect(path[len(path)-1], &old, &d.Visits)
	}

	if !uniform || hop == ip.NoRoute {
		d.Ops = append(d.Ops, diffRoutes(old, fresh)...)
		return
	}

	// Uniform single-route result: try to merge upward. Each step
	// retires the sibling's exact route (the only way a sibling block
	// can be uniform here — a route covering it from above would cover p
	// too, contradicting the no-cover precondition). A sibling block is
	// uniform exactly when its node is a route leaf; a missing node is
	// empty space (hopless), which never merges.
	anchor := p
	var retired []ip.Route
	for anchor.Len > 0 {
		parentDepth := int(anchor.Len) - 1
		if parentDepth >= len(path) {
			break
		}
		sib := anchor.Sibling()
		sibNode := path[parentDepth].Children[sib.Bits.Bit(parentDepth)]
		if d != nil {
			d.Visits.Nodes++
		}
		if sibNode == nil || sibNode.Hop != hop {
			break
		}
		retired = append(retired, ip.Route{Prefix: sib, NextHop: sibNode.Hop})
		anchor = anchor.Parent()
	}
	fresh = []ip.Route{{Prefix: anchor, NextHop: hop}}
	d.Ops = append(d.Ops, diffRoutes(old, fresh)...)
	for _, r := range retired {
		d.Ops = append(d.Ops, Op{Kind: OpDelete, Route: r})
	}
}

// coveringCompRoute walks the compressed trie toward p. If a route covers
// p strictly it is returned (and the path is irrelevant — nothing exists
// below a route). Otherwise the walked node path is returned: its last
// node roots p's compressed content when the walk reached depth len(p),
// and its interior nodes serve as the merge phase's sibling probes.
func (u *Updater) coveringCompRoute(p ip.Prefix, v *trie.Visits) (ip.Prefix, ip.NextHop, []*trie.Node) {
	n := u.table.comp.Root()
	if v != nil {
		v.Nodes++
	}
	path := make([]*trie.Node, 0, int(p.Len)+1)
	path = append(path, n)
	for depth := 0; depth < int(p.Len); depth++ {
		if n.Hop != ip.NoRoute {
			return n.Prefix, n.Hop, nil
		}
		n = n.Children[p.Bits.Bit(depth)]
		if n == nil {
			return ip.Prefix{}, ip.NoRoute, path
		}
		if v != nil {
			v.Nodes++
		}
		path = append(path, n)
	}
	return ip.Prefix{}, ip.NoRoute, path
}

// diffRoutes computes the op list transforming route set old into fresh.
// Both inputs list disjoint prefixes; a prefix present in both with a
// different hop becomes a single in-place modify (one TCAM write, no
// entry movement).
func diffRoutes(old, fresh []ip.Route) []Op {
	if len(old) == 0 && len(fresh) == 0 {
		return nil
	}
	prevHops := make(map[ip.Prefix]ip.NextHop, len(old))
	for _, r := range old {
		prevHops[r.Prefix] = r.NextHop
	}
	kept := make(map[ip.Prefix]bool, len(fresh))
	ops := make([]Op, 0, len(old)+len(fresh))
	for _, r := range fresh {
		prev, ok := prevHops[r.Prefix]
		switch {
		case !ok:
			ops = append(ops, Op{Kind: OpInsert, Route: r})
		case prev != r.NextHop:
			ops = append(ops, Op{Kind: OpModify, Route: r})
			kept[r.Prefix] = true
		default:
			// Unchanged entry; keep it out of the delete set.
			kept[r.Prefix] = true
		}
	}
	// Iterate old (not the map) so delete order is deterministic.
	for _, r := range old {
		if !kept[r.Prefix] {
			ops = append(ops, Op{Kind: OpDelete, Route: r})
		}
	}
	return ops
}
