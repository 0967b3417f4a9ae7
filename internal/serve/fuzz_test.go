package serve

import (
	"math/rand"
	"testing"

	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/trie"
)

// FuzzSnapshotIndex is the differential test for the lookup fast path:
// over random FIBs and random addresses, the stride-indexed
// Snapshot.Lookup, the full-binary-search Snapshot.LookupBinary and the
// compressed trie's onrtc.Table.Lookup must give identical answers. The
// raw bytes decode to 5-byte (address, prefix-length) records; probe
// addresses come from the seeded RNG plus every route boundary.
//
// The records are also replayed in two halves to fuzz the incremental
// index path: the first half's index is patched into the full table
// with patchIndexInto (the writer's small-batch route), and the result
// must be cut-for-cut identical to an index built from scratch —
// including the relative cuts of every sub-array both sides promoted —
// and answer every probe like the reference engines do.
func FuzzSnapshotIndex(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{10, 0, 0, 0, 8, 192, 168, 0, 0, 16})
	// Default route plus nested lengths around the 16-bit stride.
	f.Add(int64(3), []byte{
		0, 0, 0, 0, 0,
		10, 0, 0, 0, 7,
		10, 128, 0, 0, 9,
		10, 129, 0, 0, 16,
		10, 129, 3, 0, 24,
		10, 129, 3, 7, 32,
	})
	// A /1 next to deep host routes — the spanning-route extremes.
	f.Add(int64(4), []byte{128, 0, 0, 0, 1, 127, 255, 255, 255, 32, 0, 0, 0, 0, 2})
	// Host routes piling into one /24 split across the halves, so the
	// patch path crosses the sub-array promotion threshold; the trailing
	// /16 forces compression-driven deletes on top of the inserts.
	f.Add(int64(5), []byte{
		10, 1, 1, 1, 32,
		10, 1, 1, 2, 32,
		10, 1, 1, 3, 32,
		10, 1, 1, 4, 32,
		10, 1, 1, 9, 32,
		10, 1, 0, 0, 16,
	})
	// One route: the default route alone.
	f.Add(int64(6), []byte{0, 0, 0, 0, 0})
	// 255 non-adjacent /16s, one per first octet: a few hundred routes,
	// each alone in its leaf bucket, with empty buckets between them.
	var many []byte
	for i := 0; i < 255; i++ {
		many = append(many, byte(i), 1, 0, 0, 16)
	}
	f.Add(int64(7), many)
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 5*2048 {
			raw = raw[:5*2048]
		}
		insert := func(fib *trie.Trie, i int) {
			a := ip.Addr(uint32(raw[i])<<24 | uint32(raw[i+1])<<16 | uint32(raw[i+2])<<8 | uint32(raw[i+3]))
			p, err := ip.NewPrefix(a, int(raw[i+4])%33)
			if err != nil {
				t.Fatal(err)
			}
			fib.Insert(p, ip.NextHop(i/5%14+1), nil)
		}
		fib := trie.New()
		half := (len(raw) / 5 / 2) * 5
		for i := 0; i+5 <= half; i += 5 {
			insert(fib, i)
		}
		routes1 := onrtc.Compress(fib).Routes()
		for i := half; i+5 <= len(raw); i += 5 {
			insert(fib, i)
		}
		table := onrtc.Compress(fib)
		routes := table.Routes()
		snap := newSnapshot(1, routes, 4)

		// Patch path: diff the two compressed tables by prefix (a route
		// is "the same" iff its prefix survived — hop changes are not
		// structural), then patch the half-table's index forward.
		var snapP *Snapshot
		if len(routes) > 0 {
			var insLast, delLast []ip.Addr
			i, j := 0, 0
			for i < len(routes1) || j < len(routes) {
				switch {
				case j == len(routes) || (i < len(routes1) && routes1[i].Prefix.First() < routes[j].Prefix.First()):
					delLast = append(delLast, routes1[i].Prefix.Last())
					i++
				case i == len(routes1) || routes[j].Prefix.First() < routes1[i].Prefix.First():
					insLast = append(insLast, routes[j].Prefix.Last())
					j++
				default:
					if routes1[i].Prefix != routes[j].Prefix {
						delLast = append(delLast, routes1[i].Prefix.Last())
						insLast = append(insLast, routes[j].Prefix.Last())
					}
					i++
					j++
				}
			}
			snap1 := newSnapshot(1, routes1, 4)
			ar2 := newArena(len(routes))
			rng2, hop2 := ar2.routeSlabs(len(routes))
			fillSlabs(rng2, hop2, routes)
			snapP = shellOnArena(ar2, 2, 4, nil, nil)
			snapP.index = patchIndexInto(ar2, snap1.index, rng2, insLast, delLast, len(routes))

			// A patched index must be cut-for-cut the index a full
			// rebuild produces...
			for b := 0; b <= strideBuckets; b++ {
				if got, want := l1Cut(snapP.index.l1[b]), l1Cut(snap.index.l1[b]); got != want {
					t.Fatalf("patched cut[%d] = %d, rebuilt = %d (%d ins, %d del)",
						b, got, want, len(insLast), len(delLast))
				}
			}
			// ...and where both promoted a bucket, the relative
			// sub-cuts must agree entry for entry. (The promoted SETS
			// may differ: the patch path promotes lazily and keeps
			// inherited promotions a rebuild would not make.)
			for b := 0; b < strideBuckets; b++ {
				rp, rf := snapP.index.l1[b]>>32, snap.index.l1[b]>>32
				if rp == 0 || rf == 0 {
					continue
				}
				sp := snapP.index.subs[(rp-1)<<subBits : rp<<subBits]
				sf := snap.index.subs[(rf-1)<<subBits : rf<<subBits]
				for k := range sp {
					if sp[k] != sf[k] {
						t.Fatalf("bucket %d sub[%d]: patched %d, rebuilt %d", b, k, sp[k], sf[k])
					}
				}
			}
		}

		probes := make([]ip.Addr, 0, 4*len(routes)+64)
		for _, r := range routes {
			probes = append(probes, r.Prefix.First(), r.Prefix.Last())
			if f := r.Prefix.First(); f > 0 {
				probes = append(probes, f-1)
			}
			if l := r.Prefix.Last(); l < ip.Addr(^uint32(0)) {
				probes = append(probes, l+1)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			probes = append(probes, ip.Addr(rng.Uint32()))
		}

		var batchP []LookupResult
		if snapP != nil {
			batchP = snapP.LookupBatch(probes, nil)
		}
		for pi, a := range probes {
			hopI, pfxI, okI := snap.Lookup(a)
			hopB, pfxB, okB := snap.LookupBinary(a)
			hopT, pfxT := table.Lookup(a, nil)
			okT := hopT != ip.NoRoute
			if okI != okB || okI != okT {
				t.Fatalf("lookup(%s): indexed found=%v, binary found=%v, table found=%v",
					a, okI, okB, okT)
			}
			if okI && (hopI != hopB || hopI != hopT || pfxI != pfxB || pfxI != pfxT) {
				t.Fatalf("lookup(%s): indexed %d/%s, binary %d/%s, table %d/%s",
					a, hopI, pfxI, hopB, pfxB, hopT, pfxT)
			}
			if snapP != nil {
				hopP, pfxP, okP := snapP.Lookup(a)
				if okP != okT || (okP && (hopP != hopT || pfxP != pfxT)) {
					t.Fatalf("lookup(%s): patched-index %d/%s/%v, table %d/%s/%v",
						a, hopP, pfxP, okP, hopT, pfxT, okT)
				}
				if r := batchP[pi]; r.Found != okT || (okT && (r.Hop != hopT || r.Prefix != pfxT)) {
					t.Fatalf("batch lookup(%s): patched-index %d/%s/%v, table %d/%s/%v",
						a, r.Hop, r.Prefix, r.Found, hopT, pfxT, okT)
				}
			}
		}
	})
}
