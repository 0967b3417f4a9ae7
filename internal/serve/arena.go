package serve

import (
	"sync/atomic"
	"unsafe"
)

// arena is the backing store for one snapshot's bulk data: the
// struct-of-arrays route table (packed ranges + next hops) and the
// two-level stride index. Everything readers touch per lookup lives in
// four flat, pointer-free, cache-line-aligned slabs, so the GC sees a
// handful of large allocations instead of millions of route entries,
// and a retired snapshot's memory can be recycled wholesale by the
// writer once epoch reclamation proves no reader can still see it.
//
// Ownership: refs counts the snapshots currently built on this arena
// (hop-only in-place publications share one arena across versions) and
// is touched only by the writer goroutine. escaped is set when a
// snapshot on this arena is handed out through Runtime.Snapshot(): such
// a handle may be held indefinitely, so an escaped arena is never
// mutated in place or recycled — the GC reclaims it like any other
// allocation once the handles die.
type arena struct {
	rng  []uint64 // packed route ranges: last<<32 | first, ascending
	hop  []uint32 // next hops, parallel to rng; atomic access (in-place patch)
	l1   []uint64 // first-level index: 2^16+1 tagged entries (subRef<<32 | cut)
	subs []uint16 // second-level slab: 256-entry relative-cut sub-arrays for hot buckets

	refs    int
	escaped atomic.Bool
}

// alignedUint64 and alignedUint32 allocate n-element slices whose first
// element sits on a cache-line boundary, with the over-allocation kept
// as spare capacity for recycling. The Go allocator already page-aligns
// large slabs; the explicit alignment makes the cache-line contract
// hold for every slab size.
func alignedUint64(n int) []uint64 {
	if n == 0 {
		return nil
	}
	buf := make([]uint64, n+cacheLine/8)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % cacheLine; rem != 0 {
		off = int((cacheLine - rem) / 8)
	}
	return buf[off : off+n]
}

func alignedUint32(n int) []uint32 {
	if n == 0 {
		return nil
	}
	buf := make([]uint32, n+cacheLine/4)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % cacheLine; rem != 0 {
		off = int((cacheLine - rem) / 4)
	}
	return buf[off : off+n]
}

func alignedUint16(n int) []uint16 {
	if n == 0 {
		return nil
	}
	buf := make([]uint16, n+cacheLine/2)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % cacheLine; rem != 0 {
		off = int((cacheLine - rem) / 2)
	}
	return buf[off : off+n]
}

// newArena allocates an arena able to hold routeCap routes. Index slabs
// are allocated by ensureL1/ensureSubs when the index is built, so a
// recycled arena keeps the ones it already has.
func newArena(routeCap int) *arena {
	return &arena{
		rng: alignedUint64(routeCap)[:0],
		hop: alignedUint32(routeCap)[:0],
	}
}

// fits reports whether the arena can host a table of n routes and a
// second-level slab of subWords words without growing the route slabs.
// Used by the writer's recycling pool to pick an arena for the next
// snapshot; sub slabs may still grow on demand.
func (a *arena) fits(n int) bool {
	return cap(a.rng) >= n && cap(a.hop) >= n
}

// routeSlabs resizes and returns the route storage for n routes.
func (a *arena) routeSlabs(n int) ([]uint64, []uint32) {
	if cap(a.rng) < n {
		a.rng = alignedUint64(n + n/8 + 64)
	}
	if cap(a.hop) < n {
		a.hop = alignedUint32(n + n/8 + 64)
	}
	a.rng = a.rng[:n]
	a.hop = a.hop[:n]
	return a.rng, a.hop
}

// ensureL1 returns the first-level index slab (strideBuckets+1 tagged
// entries), allocating it on first use.
func (a *arena) ensureL1() []uint64 {
	if cap(a.l1) < strideBuckets+1 {
		a.l1 = alignedUint64(strideBuckets + 1)
	}
	a.l1 = a.l1[:strideBuckets+1]
	return a.l1
}

// ensureSubs returns a second-level slab of at least n entries (n must
// be a multiple of subEntries), reusing recycled capacity when it
// suffices. Growth does not preserve contents. It is geometric: the
// writer rotates several arenas while readers pin epochs, and as the
// table grows each of them would otherwise reallocate its whole slab
// (8–26 MB) every subSpare promotions.
func (a *arena) ensureSubs(n int) []uint16 {
	if cap(a.subs) < n {
		a.subs = alignedUint16(n + n/8 + subSpare*subEntries)
	}
	a.subs = a.subs[:n]
	return a.subs
}

// subCap returns how many sub-arrays the slab can hold without growing.
func (a *arena) subCap() int { return cap(a.subs) / subEntries }

// bytes is the arena's total slab footprint.
func (a *arena) bytes() int {
	return cap(a.rng)*8 + cap(a.hop)*4 + cap(a.l1)*8 + cap(a.subs)*2
}
