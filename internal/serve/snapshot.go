// Package serve turns the ONRTC-compressed table into a concurrent
// forwarding service — the software analog of the paper's line card.
//
// The design maps the paper's hardware onto Go concurrency primitives,
// and stops where the hardware's constraints stop applying: there are no
// simulated chips and no DRed here (DESIGN.md, Known deviations):
//
//   - The compressed table is published as an immutable Snapshot behind
//     an atomic.Pointer (RCU style). Readers never lock, never retry and
//     never observe a half-applied update; the disjoint table means a
//     snapshot lookup is at most two dependent index loads plus a probe
//     of a handful of candidate routes, with no priority tie-break.
//   - A single writer goroutine plays the control plane: it drains a
//     bounded channel of announce/withdraw ops, applies them in batches
//     through the ONRTC updater, pricing each op's diff as the paper's
//     TTF1/TTF2/TTF3, folds the batch's diffs into one net change per
//     prefix and atomically swaps in the next snapshot: the previous
//     one with its hops patched in place, or merge-copied with the
//     change applied. The published snapshot is the writer's only copy
//     of the compressed table. Snapshot bulk data lives in per-snapshot
//     arenas recycled through epoch-based reclamation (epoch.go), so
//     steady-state publication allocates almost nothing.
//   - N partition worker goroutines mirror the N TCAM chips. The range
//     index (Snapshot.Home) dispatches each lookup to its home worker
//     over a bounded queue; a full queue diverts the lookup to the
//     least-loaded worker, which reads the same snapshot — the paper's
//     adaptive load balancer as real goroutines and channels.
package serve

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"clue/internal/ip"
	"clue/internal/onrtc"
)

// Snapshot is an immutable view of the compressed forwarding table plus
// the range index that assigns addresses to partition workers. All
// methods are safe for unlimited concurrent use. The one sanctioned
// mutation is the writer's in-place next-hop patch (atomic stores into
// hop, matched by atomic loads here): a reader sees either the old or
// the new hop, both of which were the published answer at some instant
// during its lookup.
type Snapshot struct {
	// Version increases by one per writer batch; version 1 is the
	// snapshot built at startup.
	Version uint64
	// ar owns the slabs below. Snapshots published by a hop-only patch
	// share their predecessor's arena; the writer recycles an arena only
	// once every snapshot on it is retired and epoch-reclaimed.
	ar *arena
	// rng is the compressed table as packed ranges last<<32|first, in
	// ascending address order. The table is disjoint, so ranges are
	// non-overlapping and both bounds are strictly ascending — lookup
	// matches at most one route, and the full Route is reconstructible
	// from the range (a disjoint range of 2^k addresses at a 2^k-aligned
	// start is exactly one prefix).
	rng []uint64
	// hop holds the next hops, parallel to rng. Accessed with atomic
	// u32 loads/stores to make the writer's in-place patches sound.
	hop []uint32
	// index is the two-level DIR-24-8 index over rng, built for every
	// table size.
	index strideIndex
	// starts[i] is the first address partition worker i is home to
	// (starts[0] is always 0), the software Indexing Logic.
	starts []ip.Addr
	// empty[i] marks workers whose home range is zero-width (more
	// workers than routes). Home never returns them and the load
	// balancer will not divert to them.
	empty []bool
	// digest is the canonical digest (onrtc.Digest) of the table this
	// snapshot was published with, stamped by its builder.
	digest uint64
}

// LookupResult is one answer of a Snapshot.LookupBatch call.
type LookupResult struct {
	Hop    ip.NextHop
	Prefix ip.Prefix
	Found  bool
}

// packRange packs a prefix into the snapshot's range representation.
func packRange(p ip.Prefix) uint64 {
	return uint64(uint32(p.Last()))<<32 | uint64(uint32(p.First()))
}

// rngRoutePrefix reconstructs the prefix from a packed range: the span
// is a power of two, so the length falls out of its trailing zeros (a
// full-space span wraps to 0, whose 32 trailing zeros give the default
// route).
func rngRoutePrefix(e uint64) ip.Prefix {
	f := rngFirst(e)
	return ip.Prefix{Bits: ip.Addr(f), Len: uint8(ip.AddrBits - bits.TrailingZeros32(rngLast(e)-f+1))}
}

// fillSlabs scatters a sorted []ip.Route into the struct-of-arrays
// slabs.
func fillSlabs(rng []uint64, hop []uint32, routes []ip.Route) {
	for i := range routes {
		rng[i] = packRange(routes[i].Prefix)
		hop[i] = uint32(routes[i].NextHop)
	}
}

// newSnapshot builds a snapshot over routes (which must be sorted
// ascending and disjoint — the order onrtc.Table.Routes guarantees) on a
// fresh arena, including the two-level index.
func newSnapshot(version uint64, routes []ip.Route, workers int) *Snapshot {
	s := snapshotShell(version, routes, workers, nil, nil)
	s.digest = onrtc.Digest(routes)
	s.index = buildIndexInto(s.ar, s.rng)
	return s
}

// snapshotShell builds everything but the index: a fresh arena holding
// the struct-of-arrays table, and the partition range index with its
// cut points.
func snapshotShell(version uint64, routes []ip.Route, workers int, down []bool, plan []ip.Addr) *Snapshot {
	ar := newArena(len(routes))
	rng, hop := ar.routeSlabs(len(routes))
	fillSlabs(rng, hop, routes)
	return shellOnArena(ar, version, workers, down, plan)
}

// shellOnArena builds a snapshot over ar's already-filled route slabs:
// the writer's entry point, so a recycled arena never takes the
// []ip.Route detour. down (nil when all workers are healthy) excludes
// failed workers from the recut: their ranges are re-split
// exactly evenly across the survivors — the disjoint table makes this a
// pure boundary move, no reordering. plan, when non-nil, carries the
// rebalancer's weighted cut addresses (see cutPartitions).
func shellOnArena(ar *arena, version uint64, workers int, down []bool, plan []ip.Addr) *Snapshot {
	s := &Snapshot{Version: version, ar: ar, rng: ar.rng, hop: ar.hop}
	s.cutPartitions(workers, down, plan)
	return s
}

// clonePatched builds the successor of s for a publication that changed
// no table positions (hop-only batches, re-homes): the arena and index
// are shared outright and only the snapshot shell — version and
// partition cuts — is new.
func (s *Snapshot) clonePatched(version uint64, workers int, down []bool, plan []ip.Addr) *Snapshot {
	n := &Snapshot{Version: version, ar: s.ar, rng: s.rng, hop: s.hop, index: s.index}
	n.cutPartitions(workers, down, plan)
	return n
}

// cutPartitions computes the partition range index over the snapshot's
// route slab. Even count split, exactly like partition.CLUE: cut points
// double as the range index. With fewer routes than eligible workers
// the cuts would collapse onto each other, so the split runs over
// min(active, routes) partitions and the rest are marked empty — they
// get no home range and no home traffic.
//
// plan, when usable, overrides the even split with the rebalancer's
// weighted cut addresses: each planned start is snapped to the first
// route at or past it and clamped so cuts stay strictly increasing
// with at least one route per worker. The plan is ignored — falling
// back to the even split — whenever any worker is down, the plan's
// shape does not match the worker count, or the table has fewer routes
// than workers: degraded and degenerate states keep the hardened even
// recut semantics, and the rebalancer re-proposes once they clear.
func (s *Snapshot) cutPartitions(workers int, down []bool, plan []ip.Addr) {
	if down == nil && len(plan) == workers && s.cutPlanned(workers, plan) {
		return
	}
	s.starts = make([]ip.Addr, workers)
	s.empty = make([]bool, workers)
	active := make([]int, 0, workers)
	for i := 0; i < workers; i++ {
		s.empty[i] = true
		if down == nil || !down[i] {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		// Every worker is down (reachable only when panics took out the
		// last one). Keep worker 0 as nominal home so Home stays total;
		// the dispatch-path health checks reject new work anyway.
		active = append(active, 0)
	}
	parts := len(active)
	if len(s.rng) < parts {
		parts = len(s.rng)
	}
	for j := 0; j < parts; j++ {
		// parts <= len(rng) makes successive cuts strictly increasing,
		// so every active worker owns a non-empty route range.
		w := active[j]
		s.empty[w] = false
		if j > 0 {
			s.starts[w] = ip.Addr(rngFirst(s.rng[j*len(s.rng)/parts]))
		}
	}
	if parts == 0 {
		// Empty table: the first active worker is the nominal home.
		s.empty[active[0]] = false
	}
	// Empty workers inherit their successor's start so starts stays
	// monotone and Home's search can never land inside a zero-width
	// range; trailing ones get the max-address sentinel.
	next := ip.Addr(^uint32(0))
	for i := workers - 1; i >= 0; i-- {
		if s.empty[i] {
			s.starts[i] = next
		} else {
			next = s.starts[i]
		}
	}
}

// cutPlanned installs a rebalancer cut plan: plan[j] is worker j's
// intended partition start address. Each planned start is snapped to
// the first route beginning at or past it and clamped into
// [prev+1, len(rng)-(workers-j)], so the realized cuts are strictly
// increasing and every worker keeps at least one route even when route
// churn since the plan was computed has shifted or removed the planned
// boundaries: workers j..workers-1 need workers-j routes from the cut
// on, and a plan past every route start snaps to len(rng) itself.
// Returns false when the table cannot give each worker a route — the
// caller falls back to the even count split.
func (s *Snapshot) cutPlanned(workers int, plan []ip.Addr) bool {
	m := len(s.rng)
	if m < workers {
		return false
	}
	s.starts = make([]ip.Addr, workers)
	s.empty = make([]bool, workers)
	prev := 0
	for j := 1; j < workers; j++ {
		want := uint32(plan[j])
		idx := sort.Search(m, func(i int) bool { return rngFirst(s.rng[i]) >= want })
		if min := prev + 1; idx < min {
			idx = min
		}
		if max := m - (workers - j); idx > max {
			idx = max
		}
		s.starts[j] = ip.Addr(rngFirst(s.rng[idx]))
		prev = idx
	}
	return true
}

// CanonicalHash returns the canonical digest of the compressed table
// (onrtc.Digest over Routes()) in O(1): the writer stamps each snapshot
// with its updater's incrementally maintained digest. Two tables
// converged to the same canonical compression hash identically, so the
// digest is the convergence check the scenario lab and the feed protocol
// share. A snapshot the writer has since patched hops into in place
// (only ever one that never escaped through Runtime.Snapshot()) keeps
// the digest it was published with; the latest snapshot's is exact.
func (s *Snapshot) CanonicalHash() uint64 { return s.digest }

// Len returns the compressed entry count.
func (s *Snapshot) Len() int { return len(s.rng) }

// Workers returns the partition count the range index dispatches over.
func (s *Snapshot) Workers() int { return len(s.starts) }

// IndexBytes returns the memory footprint of the two-level index.
func (s *Snapshot) IndexBytes() int { return s.index.bytes() }

// SubArrays returns the number of hot buckets carrying a second-level
// sub-array.
func (s *Snapshot) SubArrays() int { return s.index.subCount() }

// HeapBytes approximates the snapshot's heap footprint: the arena slabs
// plus the partition side arrays.
func (s *Snapshot) HeapBytes() int {
	return s.ar.bytes() + len(s.starts)*4 + len(s.empty)
}

// route materializes entry k (whose packed range is e) as a hit.
func (s *Snapshot) route(k int, e uint64) (ip.NextHop, ip.Prefix, bool) {
	return ip.NextHop(atomic.LoadUint32(&s.hop[k])), rngRoutePrefix(e), true
}

// Lookup resolves addr against the snapshot. With the index the common
// case is one first-level load — or two dependent loads through a hot
// bucket's sub-array — plus a probe of the one or two routes whose
// ranges intersect the bucket; degenerate buckets fall back to a binary
// search bounded to the bucket. It is lock-free and allocation-free.
func (s *Snapshot) Lookup(addr ip.Addr) (ip.NextHop, ip.Prefix, bool) {
	a := uint32(addr)
	b := a >> strideShift
	e := s.index.l1[b]
	cut := l1Cut(e)
	var lo, hi int
	if ref := e >> 32; ref != 0 {
		// Hot bucket: the /24 sub-array narrows the candidates to (almost
		// always) a single route. Entries are offsets from the bucket's
		// own cut; the sub-bucket's end cut is the next sub-entry, and
		// the last sub-bucket's is the next bucket's cut.
		off := (ref - 1) << subBits
		j := uint64(a >> subShift & (subEntries - 1))
		lo = int(cut + uint32(s.index.subs[off+j]))
		if j == subEntries-1 {
			hi = int(l1Cut(s.index.l1[b+1]))
		} else {
			hi = int(cut + uint32(s.index.subs[off+j+1]))
		}
	} else {
		lo = int(cut)
		hi = int(l1Cut(s.index.l1[b+1]))
	}
	if hi < len(s.rng) {
		// A short prefix spanning past the bucket boundary sits exactly at
		// the end cut; at most one exists, and the probe's first-address
		// guard excludes it when it actually starts beyond addr.
		hi++
	}
	// Routes below lo end before the bucket starts, so the answer — the
	// last route with first <= addr — lives in [lo, hi) or nowhere.
	if hi-lo > strideScanMax {
		i, j := lo, hi
		for i < j {
			mid := int(uint(i+j) >> 1)
			if rngFirst(s.rng[mid]) <= a {
				i = mid + 1
			} else {
				j = mid
			}
		}
		if i > lo {
			if e := s.rng[i-1]; rngLast(e) >= a {
				return s.route(i-1, e)
			}
		}
		return ip.NoRoute, ip.Prefix{}, false
	}
	for k := hi - 1; k >= lo; k-- {
		e := s.rng[k]
		if rngFirst(e) <= a {
			if rngLast(e) >= a {
				return s.route(k, e)
			}
			return ip.NoRoute, ip.Prefix{}, false
		}
	}
	return ip.NoRoute, ip.Prefix{}, false
}

// LookupBinary resolves addr with a full binary search over the table —
// the pre-index reference path, kept as the oracle for the differential
// tests and benchmarks. Lookup never calls it.
func (s *Snapshot) LookupBinary(addr ip.Addr) (ip.NextHop, ip.Prefix, bool) {
	a := uint32(addr)
	i := sort.Search(len(s.rng), func(i int) bool {
		return rngFirst(s.rng[i]) > a
	}) - 1
	if i >= 0 {
		if e := s.rng[i]; rngLast(e) >= a {
			return s.route(i, e)
		}
	}
	return ip.NoRoute, ip.Prefix{}, false
}

// LookupBatch resolves addrs against this one snapshot, amortizing the
// snapshot load across the batch: one Lookup per address. Results are
// written into out (reused when its capacity suffices) and returned in
// input order.
func (s *Snapshot) LookupBatch(addrs []ip.Addr, out []LookupResult) []LookupResult {
	if cap(out) < len(addrs) {
		out = make([]LookupResult, len(addrs))
	} else {
		out = out[:len(addrs)]
	}
	for i, a := range addrs {
		hop, pfx, ok := s.Lookup(a)
		out[i] = LookupResult{Hop: hop, Prefix: pfx, Found: ok}
	}
	return out
}

// Home returns the partition worker responsible for addr. Workers with
// empty home ranges (down workers, or surplus workers on tiny tables)
// are never returned as long as the snapshot has any non-empty worker —
// which cutPartitions guarantees by construction.
func (s *Snapshot) Home(addr ip.Addr) int {
	// starts never decreases, so the last worker whose start is <= addr
	// is the number of such starts past worker 0 — worker 0 when there
	// are none. The count is summed without a data-dependent branch: on
	// random addresses a binary search's branches mispredict.
	i := 0
	a := uint64(addr)
	for _, st := range s.starts[1:] {
		i += int(^(a - uint64(st)) >> 63)
	}
	// The count can land on an empty worker (its start is inherited from
	// its successor, or the max-address sentinel for trailing empties):
	// walk down to the owning worker. Walking down can bottom out on an
	// empty worker 0 — a down worker 0 inherits the first survivor's
	// start — so walk up to the first non-empty worker in that case
	// instead of handing a down worker its old traffic back.
	for i > 0 && s.empty[i] {
		i--
	}
	if s.empty[i] {
		for j := i + 1; j < len(s.empty); j++ {
			if !s.empty[j] {
				return j
			}
		}
	}
	return i
}

// emptyHome reports whether worker i's home range is zero-width.
func (s *Snapshot) emptyHome(i int) bool {
	return i < len(s.empty) && s.empty[i]
}

// Routes materializes the snapshot's compressed table as []ip.Route
// (diagnostics and tests; the copy keeps the snapshot immutable).
func (s *Snapshot) Routes() []ip.Route {
	out := make([]ip.Route, len(s.rng))
	for i, e := range s.rng {
		out[i] = ip.Route{Prefix: rngRoutePrefix(e), NextHop: ip.NextHop(atomic.LoadUint32(&s.hop[i]))}
	}
	return out
}
