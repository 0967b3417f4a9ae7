package serve

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/trie"
)

func testRoutes(t testing.TB, n int, seed int64) (*trie.Trie, []ip.Route) {
	t.Helper()
	fib, err := fibgen.Generate(fibgen.Config{Seed: seed, Routes: n})
	if err != nil {
		t.Fatal(err)
	}
	return fib, fib.Routes()
}

func TestSnapshotLookupMatchesFIB(t *testing.T) {
	fib, _ := testRoutes(t, 4000, 11)
	table := onrtc.Compress(fib)
	snap := newSnapshot(1, table.Routes(), 4)
	if snap.Len() != table.Len() {
		t.Fatalf("snapshot has %d routes, table %d", snap.Len(), table.Len())
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		a := ip.Addr(rng.Uint32())
		want, _ := fib.Lookup(a, nil)
		hop, pfx, ok := snap.Lookup(a)
		if ok != (want != ip.NoRoute) || (ok && hop != want) {
			t.Fatalf("lookup(%s) = %d,%v want %d", a, hop, ok, want)
		}
		if ok && !pfx.Contains(a) {
			t.Fatalf("lookup(%s) matched prefix %s not containing it", a, pfx)
		}
	}
}

func TestSnapshotHomeRangeIndex(t *testing.T) {
	fib, _ := testRoutes(t, 3000, 12)
	snap := newSnapshot(1, onrtc.Compress(fib).Routes(), 4)
	if snap.Workers() != 4 {
		t.Fatalf("workers = %d", snap.Workers())
	}
	// Homes must be monotone over the address space and cover [0, 3].
	prev := 0
	seen := make(map[int]bool)
	for i := 0; i < 1<<16; i++ {
		a := ip.Addr(uint32(i) << 16)
		h := snap.Home(a)
		if h < 0 || h >= 4 {
			t.Fatalf("home(%s) = %d out of range", a, h)
		}
		if h < prev {
			t.Fatalf("home not monotone at %s: %d after %d", a, h, prev)
		}
		prev = h
		seen[h] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 homes used", len(seen))
	}
	// Every route's first address must be homed to the partition that
	// holds it (the cut points come from the routes themselves).
	routes := snap.Routes()
	for i, r := range routes {
		want := i * snap.Workers() / len(routes)
		_ = want // partition boundaries are count cuts; just ensure valid
		if h := snap.Home(r.Prefix.First()); h < 0 || h >= snap.Workers() {
			t.Fatalf("route %s homed to %d", r.Prefix, h)
		}
	}
}

func TestSnapshotFewerRoutesThanWorkers(t *testing.T) {
	routes := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("192.168.0.0/16"), NextHop: 2},
	}
	snap := newSnapshot(1, routes, 8)
	if hop, _, ok := snap.Lookup(ip.MustParseAddr("10.1.2.3")); !ok || hop != 1 {
		t.Fatalf("lookup inside 10/8 = %d,%v", hop, ok)
	}
	if _, _, ok := snap.Lookup(ip.MustParseAddr("172.16.0.1")); ok {
		t.Fatal("lookup outside routes matched")
	}
	for _, a := range []string{"0.0.0.0", "10.1.2.3", "255.255.255.255"} {
		if h := snap.Home(ip.MustParseAddr(a)); h < 0 || h >= 8 {
			t.Fatalf("home(%s) = %d", a, h)
		}
	}
}

func TestSnapshotEmptyTable(t *testing.T) {
	snap := newSnapshot(1, nil, 4)
	if _, _, ok := snap.Lookup(ip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("empty snapshot matched")
	}
	if h := snap.Home(ip.MustParseAddr("10.0.0.1")); h != 0 {
		t.Fatalf("empty snapshot home = %d", h)
	}
	if len(snap.index.l1) != strideBuckets+1 {
		t.Fatalf("empty snapshot carries a %d-entry first level", len(snap.index.l1))
	}
}

// checkIndexMatchesBinary probes snap's stride-indexed Lookup against
// the binary-search oracle at every route boundary (First, Last, and
// their neighbours — the addresses where an off-by-one in the bucket
// cut points would bite), the two ends of the address space, and
// random addresses.
func checkIndexMatchesBinary(t *testing.T, snap *Snapshot, seed int64) {
	t.Helper()
	check := func(a ip.Addr) {
		t.Helper()
		hopI, pfxI, okI := snap.Lookup(a)
		hopB, pfxB, okB := snap.LookupBinary(a)
		if okI != okB || hopI != hopB || pfxI != pfxB {
			t.Fatalf("indexed lookup(%s) = %d,%s,%v; binary = %d,%s,%v",
				a, hopI, pfxI, okI, hopB, pfxB, okB)
		}
	}
	check(0)
	check(ip.Addr(^uint32(0)))
	for _, r := range snap.Routes() {
		for _, a := range []ip.Addr{r.Prefix.First(), r.Prefix.Last()} {
			check(a)
			if a > 0 {
				check(a - 1)
			}
			if a < ip.Addr(^uint32(0)) {
				check(a + 1)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 50000; i++ {
		check(ip.Addr(rng.Uint32()))
	}
}

// TestSnapshotIndexedMatchesBinary drives the stride-indexed fast path
// against the binary-search oracle over a realistic FIB.
func TestSnapshotIndexedMatchesBinary(t *testing.T) {
	fib, _ := testRoutes(t, 6000, 41)
	checkIndexMatchesBinary(t, newSnapshot(1, onrtc.Compress(fib).Routes(), 4), 41)
}

// TestSnapshotSmallTablesIndexed covers the table sizes the differential
// oracle's live tables and the chaos scenarios run at: every snapshot
// carries the stride index, so a table of zero, one, two or a few
// hundred routes must answer exactly like the binary search.
func TestSnapshotSmallTablesIndexed(t *testing.T) {
	fib, _ := testRoutes(t, 3000, 42)
	all := onrtc.Compress(fib).Routes()
	spread := func(n int) []ip.Route {
		out := make([]ip.Route, n)
		for i := range out {
			out[i] = all[i*len(all)/n]
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		routes []ip.Route
	}{
		{"0 routes", nil},
		{"1 route, default", []ip.Route{{Prefix: ip.MustParsePrefix("0.0.0.0/0"), NextHop: 1}}},
		{"1 route, top host", []ip.Route{{Prefix: ip.MustParsePrefix("255.255.255.255/32"), NextHop: 1}}},
		{"2 routes, both ends", []ip.Route{
			{Prefix: ip.MustParsePrefix("0.0.0.0/32"), NextHop: 1},
			{Prefix: ip.MustParsePrefix("255.255.255.255/32"), NextHop: 2},
		}},
		{"2 routes, one bucket", []ip.Route{
			{Prefix: ip.MustParsePrefix("10.1.1.0/25"), NextHop: 1},
			{Prefix: ip.MustParsePrefix("10.1.1.128/25"), NextHop: 2},
		}},
		{"255 routes", spread(255)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := newSnapshot(1, tc.routes, 4)
			if snap.Len() != len(tc.routes) {
				t.Fatalf("snapshot holds %d routes, want %d", snap.Len(), len(tc.routes))
			}
			checkIndexMatchesBinary(t, snap, int64(len(tc.routes)))
		})
	}
}

// TestSnapshotIndexShortPrefixes exercises buckets covered by prefixes
// shorter than the 16-bit stride — the spanning-route case where a
// bucket's candidate sits at index[b+1] or covers many whole buckets.
func TestSnapshotIndexShortPrefixes(t *testing.T) {
	routes := []ip.Route{
		{Prefix: ip.MustParsePrefix("0.0.0.0/4"), NextHop: 1},   // 4096 buckets
		{Prefix: ip.MustParsePrefix("16.0.0.0/8"), NextHop: 2},  // 256 buckets
		{Prefix: ip.MustParsePrefix("17.0.0.0/12"), NextHop: 3}, // 16 buckets
		{Prefix: ip.MustParsePrefix("17.16.0.0/16"), NextHop: 4},
		{Prefix: ip.MustParsePrefix("17.17.0.0/24"), NextHop: 5},
		{Prefix: ip.MustParsePrefix("17.17.1.0/24"), NextHop: 6},
		{Prefix: ip.MustParsePrefix("128.0.0.0/1"), NextHop: 7}, // half the space
	}
	snap := newSnapshot(1, routes, 4)
	snap.index = buildIndexInto(snap.ar, snap.rng) // force the index despite the tiny table
	for _, tc := range []struct {
		addr string
		hop  ip.NextHop
	}{
		{"0.0.0.1", 1}, {"15.255.255.255", 1},
		{"16.0.0.0", 2}, {"16.200.7.1", 2}, {"16.255.255.255", 2},
		{"17.0.0.0", 3}, {"17.15.255.255", 3},
		{"17.16.0.5", 4}, {"17.17.0.9", 5}, {"17.17.1.9", 6},
		{"128.0.0.0", 7}, {"200.1.2.3", 7}, {"255.255.255.255", 7},
	} {
		a := ip.MustParseAddr(tc.addr)
		hop, _, ok := snap.Lookup(a)
		if !ok || hop != tc.hop {
			t.Errorf("lookup(%s) = %d,%v want %d", tc.addr, hop, ok, tc.hop)
		}
	}
	for _, miss := range []string{"17.17.2.1", "17.18.0.1", "32.0.0.1", "127.255.255.255"} {
		if hop, _, ok := snap.Lookup(ip.MustParseAddr(miss)); ok {
			t.Errorf("lookup(%s) matched %d, want no route", miss, hop)
		}
	}
}

// indexOver builds a fresh arena-backed index over routes (test helper).
func indexOver(routes []ip.Route) (*arena, strideIndex) {
	ar := newArena(len(routes))
	rng, hop := ar.routeSlabs(len(routes))
	fillSlabs(rng, hop, routes)
	return ar, buildIndexInto(ar, rng)
}

// TestStrideIndexPatchMatchesRebuild checks the incremental index patch
// (count deltas from the batch's inserted/deleted route last-addresses)
// against a from-scratch rebuild, over randomized insert/delete churn.
// Cut points must agree exactly at both levels; the promotion sets may
// differ (a patch never demotes and promotes only boundedly), so
// sub-arrays are compared where both sides carry them and the full
// lookup behavior is cross-checked route by route.
func TestStrideIndexPatchMatchesRebuild(t *testing.T) {
	fib, _ := testRoutes(t, 4000, 42)
	routes := onrtc.Compress(fib).Routes()
	_, idx := indexOver(routes)
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		var insLast, delLast []ip.Addr
		// Delete a random handful...
		for i := 0; i < 5 && len(routes) > 0; i++ {
			j := rng.Intn(len(routes))
			delLast = append(delLast, routes[j].Prefix.Last())
			routes = append(routes[:j], routes[j+1:]...)
		}
		// ...and insert fresh /26es into gaps (retrying collisions away).
		for i := 0; i < 5; i++ {
			p := ip.MustPrefix(ip.Addr(rng.Uint32()), 26)
			overlap := false
			for _, r := range routes {
				if r.Prefix.Overlaps(p) {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			at := sort.Search(len(routes), func(i int) bool {
				return routes[i].Prefix.Compare(p) >= 0
			})
			routes = append(routes, ip.Route{})
			copy(routes[at+1:], routes[at:])
			routes[at] = ip.Route{Prefix: p, NextHop: 9}
			insLast = append(insLast, p.Last())
		}
		slices.Sort(insLast)
		slices.Sort(delLast)
		next := newArena(len(routes))
		nrng, nhop := next.routeSlabs(len(routes))
		fillSlabs(nrng, nhop, routes)
		idx = patchIndexInto(next, idx, nrng, insLast, delLast, len(routes))
		_, want := indexOver(routes)
		for b := 0; b <= strideBuckets; b++ {
			if l1Cut(idx.l1[b]) != l1Cut(want.l1[b]) {
				t.Fatalf("round %d: patched cut[%#x] = %d, rebuild %d", round, b, l1Cut(idx.l1[b]), l1Cut(want.l1[b]))
			}
		}
		for b := 0; b < strideBuckets; b++ {
			pr, wr := idx.l1[b]>>32, want.l1[b]>>32
			if pr == 0 || wr == 0 {
				continue
			}
			po, wo := (pr-1)<<subBits, (wr-1)<<subBits
			for j := uint64(0); j < subEntries; j++ {
				if idx.subs[po+j] != want.subs[wo+j] {
					t.Fatalf("round %d: bucket %#x sub cut[%d] = %d, rebuild %d",
						round, b, j, idx.subs[po+j], want.subs[wo+j])
				}
			}
		}
	}
}

// TestSnapshotLookupZeroAllocs is the allocation contract of the lookup
// fast path: the indexed snapshot probe, a snapshot batch into a reused
// out, the runtime's RCU read side and a worker Dispatch (its pooled
// one-address group) must not allocate.
func TestSnapshotLookupZeroAllocs(t *testing.T) {
	fib, routes := testRoutes(t, 5000, 43)
	snap := newSnapshot(1, onrtc.Compress(fib).Routes(), 4)
	rng := rand.New(rand.NewSource(43))
	addrs := make([]ip.Addr, 1024)
	for i := range addrs {
		addrs[i] = ip.Addr(rng.Uint32())
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		snap.Lookup(addrs[i&1023])
		i++
	}); n != 0 {
		t.Fatalf("Snapshot.Lookup allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		snap.LookupBinary(addrs[i&1023])
		i++
	}); n != 0 {
		t.Fatalf("Snapshot.LookupBinary allocates %.1f per op", n)
	}
	batch := make([]ip.Addr, 4096)
	for j := range batch {
		batch[j] = ip.Addr(rng.Uint32())
	}
	out := make([]LookupResult, len(batch))
	if n := testing.AllocsPerRun(20, func() {
		out = snap.LookupBatch(batch, out)
	}); n != 0 {
		t.Fatalf("Snapshot.LookupBatch of %d allocates %.1f per call", len(batch), n)
	}
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if n := testing.AllocsPerRun(2000, func() {
		rt.Lookup(addrs[i&1023])
		i++
	}); n != 0 {
		t.Fatalf("Runtime.Lookup allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := rt.Dispatch(addrs[i&1023]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("Runtime.Dispatch allocates %.1f per op", n)
	}
}

// TestSnapshotTinyTableCutPoints is the regression for partition cut
// points when the table is smaller than the worker count: active workers
// must own strictly-increasing non-empty ranges, the tail workers must
// be marked empty, and Home must never return an empty worker — not
// even for 255.255.255.255, which the old sentinel cut points homed to
// the last (empty) worker.
func TestSnapshotTinyTableCutPoints(t *testing.T) {
	routes := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("192.168.0.0/16"), NextHop: 2},
	}
	snap := newSnapshot(1, routes, 4)
	for i, wantEmpty := range []bool{false, false, true, true} {
		if snap.emptyHome(i) != wantEmpty {
			t.Fatalf("worker %d empty = %v, want %v", i, snap.emptyHome(i), wantEmpty)
		}
	}
	for _, tc := range []struct {
		addr string
		home int
	}{
		{"0.0.0.0", 0}, {"10.1.2.3", 0}, {"100.0.0.1", 0},
		{"192.168.0.0", 1}, {"192.168.255.255", 1}, {"255.255.255.255", 1},
	} {
		if h := snap.Home(ip.MustParseAddr(tc.addr)); h != tc.home {
			t.Errorf("home(%s) = %d, want %d", tc.addr, h, tc.home)
		}
	}
	// Each route still resolves, and homes stay monotone over the space.
	if hop, _, ok := snap.Lookup(ip.MustParseAddr("192.168.3.4")); !ok || hop != 2 {
		t.Fatalf("lookup(192.168.3.4) = %d,%v", hop, ok)
	}
	prev := 0
	for i := 0; i < 1<<16; i++ {
		h := snap.Home(ip.Addr(uint32(i) << 16))
		if h < prev {
			t.Fatalf("home not monotone at bucket %d: %d after %d", i, h, prev)
		}
		prev = h
	}
}

// TestWithdrawEverythingStaysIndexed withdraws every route through the
// writer: the published empty table must carry a patched index that
// misses everywhere exactly like the binary search, and a later
// announce must be found again through the same index path.
func TestWithdrawEverythingStaysIndexed(t *testing.T) {
	routes := slash8Routes(10, 20, 30, 200)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var all []ribio.UpdateRecord
	for _, r := range routes {
		all = append(all, ribio.UpdateRecord{Withdraw: true, Prefix: r.Prefix})
	}
	patches := rt.Stats().IndexPatches
	if _, err := rt.ApplyBatch(all); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Routes != 0 || st.IndexPatches != patches+1 {
		t.Fatalf("after withdrawing everything: %d routes, %d index patches (was %d)", st.Routes, st.IndexPatches, patches)
	}
	snap := rt.Snapshot()
	checkIndexMatchesBinary(t, snap, 50)
	for _, r := range routes {
		for _, a := range []ip.Addr{r.Prefix.First() - 1, r.Prefix.First(), r.Prefix.Last(), r.Prefix.Last() + 1} {
			if _, _, ok := snap.Lookup(a); ok {
				t.Fatalf("empty table matched %s", a)
			}
			if res, err := rt.Dispatch(a); err != nil || res.Found {
				t.Fatalf("Dispatch(%s) on the empty table = %+v, %v", a, res, err)
			}
		}
	}
	back := ip.MustParsePrefix("20.0.0.0/8")
	if _, err := rt.Announce(back, 9); err != nil {
		t.Fatal(err)
	}
	if hop, pfx, ok := rt.Lookup(ip.MustParseAddr("20.1.2.3")); !ok || hop != 9 || pfx != back {
		t.Fatalf("re-announced route: %d %s %v", hop, pfx, ok)
	}
	checkIndexMatchesBinary(t, rt.Snapshot(), 51)
}

// slash8Routes returns one /8 per first octet in firsts, with distinct
// hops, so no two of them compress together.
func slash8Routes(firsts ...int) []ip.Route {
	out := make([]ip.Route, len(firsts))
	for i, f := range firsts {
		out[i] = ip.Route{Prefix: ip.MustPrefix(octetAddr(f), 8), NextHop: ip.NextHop(i + 1)}
	}
	return out
}

// octetAddr is the address first.0.0.0.
func octetAddr(first int) ip.Addr { return ip.Addr(uint32(first) << 24) }

// everyFifth returns the first octets 5, 10, …, 5n.
func everyFifth(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 5 * (i + 1)
	}
	return out
}

// TestCutPlannedClampsToTable pins cutPlanned's clamp: however far a
// rebalancer plan has drifted from the table — every planned start past
// the last route, or before the first, or a table with exactly one
// route per worker — each worker keeps at least one route, and no cut
// indexes past the table (the last worker's cut used to reach len(rng)
// and panic the writer).
func TestCutPlannedClampsToTable(t *testing.T) {
	a := octetAddr
	for _, tc := range []struct {
		name   string
		routes []ip.Route
		plan   []ip.Addr
	}{
		// 5/8 … 185/8, a plan computed before 190/8 … 200/8 were withdrawn.
		{"plan past the last start", slash8Routes(everyFifth(37)...), []ip.Addr{0, a(60), a(120), a(190)}},
		{"plan past every start", slash8Routes(everyFifth(40)...), []ip.Addr{0, a(210), a(220), a(230)}},
		{"plan before every start", slash8Routes(everyFifth(40)...), []ip.Addr{0, 1, 2, 3}},
		{"one route per worker", slash8Routes(10, 20, 30, 40), []ip.Addr{0, a(15), a(200), a(250)}},
		{"one route per worker, plan before", slash8Routes(10, 20, 30, 40), []ip.Addr{0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const workers = 4
			s := snapshotShell(1, tc.routes, workers, nil, tc.plan)
			if s.starts[0] != 0 {
				t.Fatalf("starts[0] = %s", s.starts[0])
			}
			for j := 1; j < workers; j++ {
				if s.starts[j] <= s.starts[j-1] {
					t.Fatalf("cuts not strictly increasing: %v", s.starts)
				}
			}
			owned := make([]int, workers)
			for _, r := range tc.routes {
				owned[s.Home(r.Prefix.First())]++
			}
			for w, n := range owned {
				if n == 0 || s.empty[w] {
					t.Fatalf("worker %d owns no route: owned=%v starts=%v", w, owned, s.starts)
				}
			}
		})
	}
}

// TestSnapshotLookupBatchMatchesSingle holds LookupBatch to Lookup on a
// small and a large batch, and checks that it reuses the caller's out.
func TestSnapshotLookupBatchMatchesSingle(t *testing.T) {
	fib, _ := testRoutes(t, 4000, 44)
	snap := newSnapshot(1, onrtc.Compress(fib).Routes(), 4)
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{777, 4096} {
		addrs := make([]ip.Addr, n)
		for i := range addrs {
			addrs[i] = ip.Addr(rng.Uint32())
		}
		out := snap.LookupBatch(addrs, nil)
		if len(out) != len(addrs) {
			t.Fatalf("batch returned %d results for %d addrs", len(out), len(addrs))
		}
		for i, a := range addrs {
			hop, pfx, ok := snap.Lookup(a)
			if out[i].Found != ok || out[i].Hop != hop || out[i].Prefix != pfx {
				t.Fatalf("batch of %d [%d] (%s) = %+v, single = %d,%s,%v", n, i, a, out[i], hop, pfx, ok)
			}
		}
		// Reuse keeps the caller's slice.
		again := snap.LookupBatch(addrs[:100], out)
		if &again[0] != &out[0] || len(again) != 100 {
			t.Fatal("LookupBatch did not reuse the output slice")
		}
	}
}
