package serve

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"clue/internal/ip"
	"clue/internal/ribio"
)

// TestEpochReclamationUnderChurn hammers the lock-free read side from
// several goroutines — single lookups, batches, and escaped Snapshot()
// handles — while the writer replays structural withdraw/announce churn
// fast enough that retired arenas are recycled underneath them. Run
// under -race (as CI does) this is the proof of the epoch protocol's
// memory ordering: the reader's slot CAS on enter and release on exit
// must establish happens-before edges with the writer's recycle-time
// slab writes, or the detector flags the replay.
func TestEpochReclamationUnderChurn(t *testing.T) {
	fib, routes := testRoutes(t, 3000, 77)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			batch := make([]ip.Addr, 64)
			var out []LookupResult
			for !stop.Load() {
				switch rnd.Intn(8) {
				case 0:
					for i := range batch {
						batch[i] = ip.Addr(rnd.Uint32())
					}
					out, _ = rt.LookupBatch(batch, out)
				case 1:
					// Escaped handle: it pins an epoch only while being
					// taken, then must stay readable indefinitely even
					// after the writer has moved many versions ahead.
					// Rare, because an escaped arena is never recycled: at
					// one escape per few reader ops every arena escapes and
					// nothing is recycled underneath the readers at all.
					if rnd.Intn(256) != 0 {
						rt.Lookup(ip.Addr(rnd.Uint32()))
						continue
					}
					s := rt.Snapshot()
					s.Lookup(ip.Addr(rnd.Uint32()))
				default:
					rt.Lookup(ip.Addr(rnd.Uint32()))
				}
			}
		}(int64(g))
	}

	iters := 300
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		r := routes[(i*37)%len(routes)]
		if _, err := rt.Withdraw(r.Prefix); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Announce(r.Prefix, r.NextHop); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	st := rt.Stats()
	if st.ArenasRecycled == 0 {
		t.Error("structural churn recycled no arenas — epoch reclamation never fired")
	}
	// Every withdrawn route was re-announced, so the served table must
	// match the untouched FIB again.
	rnd := rand.New(rand.NewSource(78))
	for i := 0; i < 2000; i++ {
		a := ip.Addr(rnd.Uint32())
		want, _ := fib.Lookup(a, nil)
		hop, _, ok := rt.Lookup(a)
		if ok != (want != ip.NoRoute) || (ok && hop != want) {
			t.Fatalf("after churn: Lookup(%s) = %d,%v want %d", a, hop, ok, want)
		}
	}
}

// TestWriterSteadyStateAllocs guards the writer path's allocation
// behavior. Before the arena rework every structural publish allocated
// a fresh 2^16+1-entry stride index (512 KiB) plus a copy of the route
// table; with the recycling pool warm, a steady stream of single-route
// batches must reuse those slabs and stay orders of magnitude below
// that. The bound is loose enough for the update pipeline's own small
// allocations (per-op completion channels, diff scratch) and tight
// enough that reintroducing a per-batch index or table copy trips it.
func TestWriterSteadyStateAllocs(t *testing.T) {
	_, routes := testRoutes(t, 5000, 99)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	churn := func(pairs int) {
		for i := 0; i < pairs; i++ {
			r := routes[(i*13)%len(routes)]
			if _, err := rt.Withdraw(r.Prefix); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Announce(r.Prefix, r.NextHop); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(25) // warm the arena pool and writer scratch
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const pairs = 200
	churn(pairs)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / (2 * pairs)
	t.Logf("writer steady state: %d B/update", per)
	if per > 32<<10 {
		t.Errorf("writer path allocates %d B/update in steady state; want < 32 KiB (index or table slabs not reused?)", per)
	}
}

// TestWriterDeaggregationAllocs holds the same per-update allocation
// bound under a route-leak-shaped storm: a flood of fresh /24s that
// grows the table well past its boot size (every op structural, the
// arena must regrow), then the full retraction. Growth regrow is
// amortised by the arena headroom and retired slabs come back through
// the recycling pool, so a second leak cycle must stay in the same
// steady-state budget as benign churn — a writer that copies the index
// or reallocates slabs per batch while bloated trips this long before
// it trips the benign-churn guard.
func TestWriterDeaggregationAllocs(t *testing.T) {
	fib, routes := testRoutes(t, 5000, 99)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// The leak: fresh /24s (absent from the FIB) across a few /16 spans.
	var leak []ip.Prefix
	for b := 0; len(leak) < 400; b++ {
		p := ip.MustPrefix(ip.Addr(uint32(60+b)<<24|uint32(b%3)<<16|uint32(len(leak)%256)<<8), 24)
		if fib.Get(p, nil) == ip.NoRoute {
			leak = append(leak, p)
		}
	}
	cycle := func(ps []ip.Prefix) {
		for _, p := range ps {
			if _, err := rt.Announce(p, 3); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range ps {
			if _, err := rt.Withdraw(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := rt.Snapshot().Len()
	cycle(leak) // warm the pool at leak-bloated sizes
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle(leak)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(2*len(leak))
	t.Logf("deaggregation storm: %d B/update over %d leaked /24s", per, len(leak))
	if per > 32<<10 {
		t.Errorf("writer path allocates %d B/update under deaggregation; want < 32 KiB", per)
	}
	st := rt.Stats()
	if st.PeakRoutes < int64(base+len(leak)*9/10) {
		t.Errorf("peak-routes high-water mark %d did not track the leak (base %d, leak %d)", st.PeakRoutes, base, len(leak))
	}
	if got := rt.Snapshot().Len(); got != base {
		t.Errorf("table did not return to %d routes after retraction: %d", base, got)
	}
}

// TestWriterGrowthAllocsUnderReader holds the per-update allocation
// bound while the table grows and a reader keeps epochs pinned. Every
// batch promotes index buckets, so the sub-array slab grows with the
// table, and the pinned epochs keep several arenas in rotation, each
// carrying a slab of its own. A slab that grew by a fixed number of
// sub-arrays would be reallocated whole in every arena every few
// batches; grown geometrically, the copies amortise to a few KB per
// update.
func TestWriterGrowthAllocsUnderReader(t *testing.T) {
	if testing.Short() {
		t.Skip("growth storm")
	}
	_, routes := testRoutes(t, 20000, 7)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Two fresh /24s in each /16 bucket that no route ends in or covers:
	// every pair turns one empty leaf bucket into a promoted one.
	var grow []ribio.UpdateRecord
	slot := rt.ep.enter(1)
	l1 := rt.snap.Load().index.l1
	for b := uint32(0); b < 1<<16 && len(grow) < 4000; b++ {
		if _, _, ok := rt.Lookup(ip.Addr(b << 16)); ok || l1Cut(l1[b+1]) != l1Cut(l1[b]) {
			continue
		}
		grow = append(grow,
			ribio.UpdateRecord{Prefix: ip.MustPrefix(ip.Addr(b<<16|1<<8), 24), NextHop: 5},
			ribio.UpdateRecord{Prefix: ip.MustPrefix(ip.Addr(b<<16|9<<8), 24), NextHop: 6})
	}
	slot.exit()
	if len(grow) < 4000 {
		t.Fatalf("found room for %d growth updates, want 4000", len(grow))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		addrs := make([]ip.Addr, 256)
		var out []Result
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range addrs {
				addrs[i] = routes[rng.Intn(len(routes))].Prefix.First()
			}
			out, _ = rt.DispatchBatch(addrs, out)
		}
	}()
	apply := func(recs []ribio.UpdateRecord) {
		for i := 0; i < len(recs); i += 8 {
			if _, err := rt.ApplyBatch(recs[i : i+8]); err != nil {
				t.Error(err)
				return
			}
		}
	}
	apply(grow[:400]) // warm the arena pool
	subs := rt.Stats().IndexSubArrays
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	apply(grow[400:])
	runtime.ReadMemStats(&after)
	close(stop)
	wg.Wait()
	promoted := rt.Stats().IndexSubArrays - subs
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(grow)-400)
	t.Logf("table growth under a reader: %d B/update, %d buckets promoted to %d", per, promoted, rt.Stats().IndexSubArrays)
	if promoted < 1500 {
		t.Fatalf("only %d buckets promoted; the storm does not grow the slab", promoted)
	}
	if per > 32<<10 {
		t.Errorf("writer path allocates %d B/update while the table grows; want < 32 KiB (sub-array slab regrown per batch?)", per)
	}
}
