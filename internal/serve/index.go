package serve

import (
	"runtime"
	"sort"
	"sync"

	"clue/internal/ip"
)

// The stride index is the software analog of a line card's DIR-24-8
// pipeline, shaped for the disjoint ONRTC output: because compressed
// routes are non-overlapping and sorted, a bucket's candidates form one
// contiguous slice of the route table, so both index levels are flat
// arrays of cut points — no pointers, no per-node headers.
//
//   - Level 1 is a 2^16-entry array over the top strideBits of the
//     address. Each entry packs the bucket's cut (count of routes lying
//     entirely below the bucket) with a tag: 0 for a leaf bucket
//     (candidates are scanned directly), or a 1-based reference into
//     the second-level slab for a promoted bucket.
//   - Level 2 is a slab of 256-entry sub-arrays, one per hot bucket
//     (route count >= subPromoteMin), carrying the same cut-point
//     semantics at /24 granularity. A promoted lookup is two dependent
//     loads — l1 entry, then sub-array cut — landing on a candidate
//     range that is almost always a single route.
const (
	// strideBits is the width of the first-level index: 2^16 buckets,
	// each covering a /16 of the address space.
	strideBits    = 16
	strideShift   = ip.AddrBits - strideBits
	strideBuckets = 1 << strideBits

	// subBits is the width of a second-level sub-array: 256 entries,
	// each covering a /24 of a promoted bucket.
	subBits    = 8
	subShift   = strideShift - subBits
	subEntries = 1 << subBits

	// subPromoteMin is the bucket route count at which a second-level
	// sub-array pays for itself. Promoting aggressively — any bucket
	// with two or more routes — keeps nearly every probe window at one
	// or two entries, which measures ~15% faster than promoting at five
	// on skewed traffic; the price is index memory (surfaced through
	// Stats.IndexBytes) since each promoted bucket carries a 512 B
	// sub-array.
	subPromoteMin = 2

	// subSpare is the least promotion headroom (in sub-arrays) a slab
	// grows with, on top of an eighth of its size, so in-place index
	// patches can promote buckets that turn hot without forcing a full
	// rebuild.
	subSpare = 64

	// subPatchPromoteMax bounds how many buckets one index patch may
	// promote, keeping the patch cost proportional to the batch.
	subPatchPromoteMax = 16

	// strideScanMax bounds the linear candidate scan; leaf buckets (or
	// pathological /24 sub-buckets) packed with more long prefixes than
	// this fall back to a binary search bounded to the bucket.
	strideScanMax = 8

	// stridePatchMax caps how many structural table changes a snapshot
	// swap may patch through the previous index before a fresh parallel
	// rebuild is cheaper.
	stridePatchMax = 4096

	// strideBuildChunk is the bucket range below which the first-level
	// fill stays single-threaded: spawning the worker pool only pays
	// off once the merge walk dominates goroutine startup.
	strideBuildChunk = 1 << 13
)

// strideIndex is the two-level lookup structure. Both slices are views
// into the owning snapshot's arena. l1[b] packs subRef<<32 | cut where
// cut is the index of the first route whose last address reaches bucket
// b and subRef is 0 (leaf) or 1+i for the sub-array at subs[i*256:].
// l1[strideBuckets] is the table length. subs carries the same cut
// semantics at /24 granularity, stored as 16-bit offsets RELATIVE to
// the owning bucket's l1 cut: a sub-bucket's cut is cut + sub[j], its
// end cut is cut + sub[j+1], or the next l1 cut for the last
// sub-bucket. Relative entries count only routes inside the bucket
// (at most 65280 can lie below the last /24, so uint16 never
// overflows), and — crucially for fast updates — they are invariant
// under route shifts outside the bucket, so an index patch can carry
// every untouched sub-array over with one bulk copy.
type strideIndex struct {
	l1   []uint64
	subs []uint16
}

// subCount returns the number of promoted buckets.
func (ix strideIndex) subCount() int { return len(ix.subs) / subEntries }

// bytes is the index's memory footprint.
func (ix strideIndex) bytes() int { return len(ix.l1)*8 + len(ix.subs)*2 }

// cut extracts the route cut from a level-1 entry.
func l1Cut(e uint64) uint32 { return uint32(e) }

// rngLast / rngFirst unpack a snapshot's packed route range.
func rngFirst(e uint64) uint32 { return uint32(e) }
func rngLast(e uint64) uint32  { return uint32(e >> 32) }

// buildIndexInto computes the two-level index over the packed route
// ranges from scratch into ar's index slabs. The first-level fill is
// parallelized across bucket ranges; disjointness makes the routes'
// last addresses ascending, so each worker binary-searches its first
// cut and then linearly merges routes and buckets. Hot buckets then get
// second-level sub-arrays, filled in parallel the same way.
func buildIndexInto(ar *arena, rng []uint64) strideIndex {
	l1 := ar.ensureL1()
	workers := runtime.GOMAXPROCS(0)
	if workers > strideBuckets/strideBuildChunk {
		workers = strideBuckets / strideBuildChunk
	}
	if workers <= 1 {
		fillL1Range(l1, rng, 0, strideBuckets)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			b0 := w * strideBuckets / workers
			b1 := (w + 1) * strideBuckets / workers
			wg.Add(1)
			go func(b0, b1 int) {
				defer wg.Done()
				fillL1Range(l1, rng, b0, b1)
			}(b0, b1)
		}
		wg.Wait()
	}
	l1[strideBuckets] = uint64(len(rng))

	// Promotion pass: tag hot buckets with 1-based sub-array refs. The
	// serial scan is cheap (one branch per bucket); the sub-array fills
	// it schedules run in parallel below.
	hot := 0
	for b := 0; b < strideBuckets; b++ {
		if l1Cut(l1[b+1])-l1Cut(l1[b]) >= subPromoteMin {
			hot++
			l1[b] |= uint64(hot) << 32
		}
	}
	ix := strideIndex{l1: l1}
	if hot == 0 {
		ar.subs = ar.subs[:0]
		return ix
	}
	subs := ar.ensureSubs(hot * subEntries)
	if workers <= 1 || hot < 64 {
		fillSubRange(l1, subs, rng, 0, strideBuckets)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			b0 := w * strideBuckets / workers
			b1 := (w + 1) * strideBuckets / workers
			wg.Add(1)
			go func(b0, b1 int) {
				defer wg.Done()
				fillSubRange(l1, subs, rng, b0, b1)
			}(b0, b1)
		}
		wg.Wait()
	}
	ix.subs = subs
	return ix
}

// fillL1Range fills the first-level cuts for buckets [b0, b1).
func fillL1Range(l1 []uint64, rng []uint64, b0, b1 int) {
	first := uint32(b0) << strideShift
	r := sort.Search(len(rng), func(i int) bool {
		return rngLast(rng[i]) >= first
	})
	for b := b0; b < b1; b++ {
		bf := uint32(b) << strideShift
		for r < len(rng) && rngLast(rng[r]) < bf {
			r++
		}
		l1[b] = uint64(uint32(r))
	}
}

// fillSubRange fills the sub-arrays of every promoted bucket in
// [b0, b1): the same cut-point merge as the first level, at /24
// granularity, starting from the bucket's own cut.
func fillSubRange(l1 []uint64, subs []uint16, rng []uint64, b0, b1 int) {
	for b := b0; b < b1; b++ {
		ref := l1[b] >> 32
		if ref == 0 {
			continue
		}
		fillSubArray(subs[(ref-1)<<subBits:ref<<subBits], rng, uint32(b), l1Cut(l1[b]))
	}
}

// fillSubArray fills one 256-entry sub-array for bucket b, whose first
// candidate route sits at cut. Entries are offsets relative to cut.
func fillSubArray(sub []uint16, rng []uint64, b, cut uint32) {
	r := int(cut)
	base := b << strideShift
	for j := 0; j < subEntries; j++ {
		sf := base | uint32(j)<<subShift
		for r < len(rng) && rngLast(rng[r]) < sf {
			r++
		}
		sub[j] = uint16(r - int(cut))
	}
}

// patchIndexInto derives the index for the post-batch route table from
// the previous snapshot's index plus the (ascending) last addresses of
// the routes the batch inserted and deleted, writing into ar's slabs —
// O(buckets + slab copy) with no table walk, regardless of table size.
// Cut semantics make the first level a counting merge: every cut grows
// by the inserts below its address and shrinks by the deletes below it.
// Sub-arrays are bucket-relative, so only buckets the batch actually
// touched need their sub-array recomputed — every other promoted
// bucket's entries are bit-identical and ride along in one bulk copy.
// Buckets that turned hot are promoted into the slab's spare capacity,
// bounded per patch.
func patchIndexInto(ar *arena, prev strideIndex, rng []uint64, insLast, delLast []ip.Addr, total int) strideIndex {
	prevSubs := prev.subCount()
	l1 := ar.ensureL1()
	subs := ar.ensureSubs(prevSubs * subEntries)
	copy(subs, prev.subs)

	// Buckets before the batch's first op keep identical entries — bulk
	// copy. Buckets after its last op shift by the constant insert/delete
	// difference — bulk add. Only the bucket range the ops actually span
	// runs the counting merge (and possible sub-array recomputes).
	first := uint64(1) << 32
	if len(insLast) > 0 {
		first = uint64(insLast[0])
	}
	if len(delLast) > 0 && uint64(delLast[0]) < first {
		first = uint64(delLast[0])
	}
	b := int(first >> strideShift)
	if b > strideBuckets {
		b = strideBuckets
	}
	copy(l1[:b], prev.l1[:b])
	ii, di := 0, 0
	for ; b < strideBuckets && (ii < len(insLast) || di < len(delLast)); b++ {
		bf := ip.Addr(uint32(b) << strideShift)
		for ii < len(insLast) && insLast[ii] < bf {
			ii++
		}
		for di < len(delLast) && delLast[di] < bf {
			di++
		}
		e := prev.l1[b]
		cut := l1Cut(e) + uint32(ii) - uint32(di)
		ref := e >> 32
		l1[b] = ref<<32 | uint64(cut)
		if ref == 0 {
			continue
		}
		// Promoted bucket: its relative sub-cuts only change when the
		// batch adds or removes a route ending inside the bucket; the
		// wholesale copy above already carried the untouched ones.
		nf := uint64(bf) + 1<<strideShift
		if (ii < len(insLast) && uint64(insLast[ii]) < nf) ||
			(di < len(delLast) && uint64(delLast[di]) < nf) {
			fillSubArray(subs[(ref-1)<<subBits:ref<<subBits], rng, uint32(b), cut)
		}
	}
	if delta := uint32(len(insLast)) - uint32(len(delLast)); delta == 0 {
		copy(l1[b:strideBuckets], prev.l1[b:strideBuckets])
	} else {
		for ; b < strideBuckets; b++ {
			e := prev.l1[b]
			l1[b] = e>>32<<32 | uint64(l1Cut(e)+delta)
		}
	}
	l1[strideBuckets] = uint64(uint32(total))
	ix := strideIndex{l1: l1, subs: subs}

	// Promote buckets the batch pushed over the threshold, bounded per
	// patch and by slab spare capacity. Inserts are the only way a
	// bucket grows, so only their buckets need checking.
	promoted := 0
	nextRef := uint64(prevSubs)
	for i := 0; i < len(insLast) && promoted < subPatchPromoteMax; i++ {
		b := uint32(insLast[i]) >> strideShift
		e := l1[b]
		if e>>32 != 0 {
			continue
		}
		if l1Cut(l1[b+1])-l1Cut(e) < subPromoteMin {
			continue
		}
		if ar.subCap() < int(nextRef)+1 {
			break
		}
		nextRef++
		subs = ar.ensureSubs(int(nextRef) * subEntries)
		fillSubArray(subs[(nextRef-1)<<subBits:nextRef<<subBits], rng, b, l1Cut(e))
		l1[b] = e | nextRef<<32
		promoted++
	}
	ix.subs = subs
	return ix
}
