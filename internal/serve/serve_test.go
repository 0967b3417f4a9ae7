package serve

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

// tracegenFIB builds a private trie copy for the update generator, so the
// generator's view churns independently of the runtime under test.
func tracegenFIB(t testing.TB, routes []ip.Route) *trie.Trie {
	t.Helper()
	return trie.FromRoutes(routes)
}

func TestRuntimeLookupAndDispatchMatchFIB(t *testing.T) {
	fib, routes := testRoutes(t, 4000, 21)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		a := ip.Addr(rng.Uint32())
		want, _ := fib.Lookup(a, nil)
		hop, _, ok := rt.Lookup(a)
		if ok != (want != ip.NoRoute) || (ok && hop != want) {
			t.Fatalf("Lookup(%s) = %d,%v want %d", a, hop, ok, want)
		}
		res, err := rt.Dispatch(a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
			t.Fatalf("Dispatch(%s) = %+v want %d", a, res, want)
		}
	}
	st := rt.Stats()
	if st.Dispatched != 5000 {
		t.Fatalf("dispatched = %d", st.Dispatched)
	}
	var served int64
	for _, v := range st.WorkerServed {
		served += v
	}
	if served != st.Dispatched {
		t.Fatalf("served %d != dispatched %d", served, st.Dispatched)
	}
}

func TestAnnounceVisibleWhenReturned(t *testing.T) {
	_, routes := testRoutes(t, 2000, 22)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	p := ip.MustParsePrefix("203.0.113.0/24")
	a := ip.MustParseAddr("203.0.113.7")
	before, _, _ := rt.Lookup(a)
	v0 := rt.Snapshot().Version

	ttf, err := rt.Announce(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	if ttf.Total() <= 0 {
		t.Fatalf("announce TTF = %+v, want positive", ttf)
	}
	if hop, _, ok := rt.Lookup(a); !ok || hop != 99 {
		t.Fatalf("lookup after announce = %d,%v want 99", hop, ok)
	}
	if res, err := rt.Dispatch(a); err != nil || !res.Found || res.Hop != 99 {
		t.Fatalf("dispatch after announce = %+v, %v", res, err)
	}
	if v := rt.Snapshot().Version; v <= v0 {
		t.Fatalf("snapshot version %d not advanced past %d", v, v0)
	}

	if _, err := rt.Withdraw(p); err != nil {
		t.Fatal(err)
	}
	after, _, _ := rt.Lookup(a)
	if after != before {
		t.Fatalf("lookup after withdraw = %d, want pre-announce %d", after, before)
	}
}

func TestWithdrawAbsentPrefixNoop(t *testing.T) {
	_, routes := testRoutes(t, 1000, 23)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Withdraw(ip.MustParsePrefix("198.51.100.0/28")); err != nil {
		t.Fatalf("withdraw of absent prefix: %v", err)
	}
	if st := rt.Stats(); st.UpdateErrors != 0 {
		t.Fatalf("update errors = %d", st.UpdateErrors)
	}
}

func TestAnnounceRejectsZeroHop(t *testing.T) {
	_, routes := testRoutes(t, 1000, 24)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Announce(ip.MustParsePrefix("10.9.0.0/16"), ip.NoRoute); err == nil {
		t.Fatal("zero next hop accepted")
	}
	if st := rt.Stats(); st.UpdateErrors != 1 {
		t.Fatalf("update errors = %d, want 1", st.UpdateErrors)
	}
}

// publishedDigest returns the current snapshot's stamped digest and the
// digest its routes recompute to, read under an epoch pin instead of
// through Snapshot() so the arena stays eligible for in-place patches.
func publishedDigest(rt *Runtime) (stamped, recomputed uint64) {
	slot := rt.ep.enter(rt.pinSeed.Add(1))
	defer slot.exit()
	s := rt.snap.Load()
	return s.CanonicalHash(), onrtc.Digest(s.Routes())
}

// TestApplyBatch: a batch is validated whole before anything applies,
// publishes once, and every shape of publication — structural, hop-only
// in place, rehome — carries the exact digest of its table.
func TestApplyBatch(t *testing.T) {
	fib, routes := testRoutes(t, 1000, 27)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fresh := ip.MustParsePrefix("203.0.113.0/24")
	if fib.Get(fresh, nil) != ip.NoRoute {
		t.Fatalf("%v already in the FIB", fresh)
	}
	expectExact := func(what string) {
		t.Helper()
		if stamped, want := publishedDigest(rt); stamped != want || rt.TableHash() != want {
			t.Fatalf("%s: stamped digest %016x (TableHash %016x), routes digest to %016x", what, stamped, rt.TableHash(), want)
		}
	}
	expectExact("boot")

	// A zero-hop announce in the middle rejects the whole call.
	v0, h0 := rt.Version(), rt.TableHash()
	bad := []ribio.UpdateRecord{
		{Prefix: fresh, NextHop: 9001},
		{Prefix: ip.MustParsePrefix("198.51.100.0/24")},
		{Withdraw: true, Prefix: routes[0].Prefix},
	}
	if _, err := rt.ApplyBatch(bad); err == nil {
		t.Fatal("batch with a zero-hop announce accepted")
	}
	if rt.Version() != v0 || rt.TableHash() != h0 {
		t.Fatalf("rejected batch published: version %d→%d, hash %016x→%016x", v0, rt.Version(), h0, rt.TableHash())
	}
	if hop, _, _ := rt.Lookup(fresh.First()); hop == 9001 {
		t.Fatal("record ahead of the rejected one was applied")
	}
	if st := rt.Stats(); st.UpdateErrors != 1 || st.Batches != 0 {
		t.Fatalf("rejected batch: %d update errors, %d writer batches; want 1, 0", st.UpdateErrors, st.Batches)
	}

	// Three records, one writer batch, one publication.
	good := []ribio.UpdateRecord{bad[0], bad[2], {Prefix: ip.MustParsePrefix("198.51.100.0/24"), NextHop: 9003}}
	cost, err := rt.ApplyBatch(good)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Total() <= 0 {
		t.Fatalf("batch priced at %+v", cost)
	}
	if st := rt.Stats(); rt.Version() != v0+1 || st.Batches != 1 || st.BatchOps != 3 {
		t.Fatalf("3-record batch: version %d→%d, %d writer batches of %d ops; want one publication", v0, rt.Version(), st.Batches, st.BatchOps)
	}
	if hop, _, _ := rt.Lookup(fresh.First()); hop != 9001 {
		t.Fatalf("Lookup(%v) = %d after the batch, want 9001", fresh.First(), hop)
	}
	expectExact("structural batch")

	// Rewriting the fresh route's hop is a hop-only publication patched
	// into the live arena.
	patches := rt.Stats().InPlacePatches
	if _, err := rt.Announce(fresh, 9002); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().InPlacePatches != patches+1 {
		t.Fatal("hop rewrite did not take the in-place path")
	}
	expectExact("in-place hop patch")

	// A rehome republishes the same table under new cuts.
	h := rt.TableHash()
	if err := rt.FailWorker(1); err != nil {
		t.Fatal(err)
	}
	if rt.TableHash() != h {
		t.Fatal("rehome changed the table digest")
	}
	expectExact("rehome")
	if err := rt.RecoverWorker(1); err != nil {
		t.Fatal(err)
	}
	expectExact("recover")
}

// TestWriterMergesLargeDiff drives diffs of mergeMinOps or more ops —
// a hop-only rewrite of a fragmented /8, its withdrawal and its
// re-announcement — through the writer's one-pass merge, which must
// leave the mirror, the published snapshot and its digest exactly where
// the op-by-op replay would.
func TestWriterMergesLargeDiff(t *testing.T) {
	base := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("20.0.0.0/8"), NextHop: 3},
	}
	// Enough fragments that the merge's insert/delete cuts land in many
	// index buckets.
	for i := 0; i < 306; i++ {
		base = append(base, ip.Route{Prefix: ip.MustPrefix(ip.Addr(10<<24|uint32(i%250)<<16|uint32(i/250*64+7)<<8), 24), NextHop: ip.NextHop(100 + i)})
	}
	rt, err := New(base, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ref := onrtc.BuildUpdater(trie.FromRoutes(base))
	slash8 := ip.MustParsePrefix("10.0.0.0/8")
	for _, step := range []struct {
		name     string
		rec      ribio.UpdateRecord
		hopsOnly bool
	}{
		{"rehop", ribio.UpdateRecord{Prefix: slash8, NextHop: 2}, true},
		{"withdraw", ribio.UpdateRecord{Withdraw: true, Prefix: slash8}, false},
		{"announce", ribio.UpdateRecord{Prefix: slash8, NextHop: 5}, false},
	} {
		var d onrtc.Diff
		if step.rec.Withdraw {
			d = ref.Withdraw(step.rec.Prefix)
		} else {
			d = ref.Announce(step.rec.Prefix, step.rec.NextHop)
		}
		if len(d.Ops) < mergeMinOps {
			t.Fatalf("%s: diff of %d ops does not reach the merge path (%d)", step.name, len(d.Ops), mergeMinOps)
		}
		patches := rt.Stats().InPlacePatches
		if _, err := rt.ApplyBatch([]ribio.UpdateRecord{step.rec}); err != nil {
			t.Fatal(err)
		}
		if inPlace := rt.Stats().InPlacePatches > patches; inPlace != step.hopsOnly {
			t.Fatalf("%s: in-place publication %v, want %v", step.name, inPlace, step.hopsOnly)
		}
		expectRoutes := func(what string, got []ip.Route) {
			t.Helper()
			want := ref.Table().Routes()
			if len(got) != len(want) {
				t.Fatalf("%s: %s has %d routes, reference %d", step.name, what, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %s[%d] = %v, reference %v", step.name, what, i, got[i], want[i])
				}
			}
		}
		expectRoutes("writer mirror", rt.table)
		slot := rt.ep.enter(rt.pinSeed.Add(1))
		expectRoutes("snapshot", rt.snap.Load().Routes())
		slot.exit()
		for _, r := range ref.Table().Routes() {
			for _, a := range []ip.Addr{r.Prefix.First(), r.Prefix.Last()} {
				if hop, _, _ := rt.Lookup(a); hop != r.NextHop {
					t.Fatalf("%s: Lookup(%v) = %d, reference %d", step.name, a, hop, r.NextHop)
				}
			}
		}
		if stamped, want := publishedDigest(rt); stamped != want || want != ref.Table().Digest() {
			t.Fatalf("%s: stamped digest %016x, routes %016x, reference %016x", step.name, stamped, want, ref.Table().Digest())
		}
	}
}

func TestDispatchDivertsOffFullQueue(t *testing.T) {
	fib, routes := testRoutes(t, 3000, 25)
	rt, err := New(routes, Config{QueueDepth: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Stall worker 0 and fill its 1-deep queue, so any lookup homed to it
	// must take the divert path. The stall is released by the deferred
	// close before rt.Close drains the workers.
	stall := make(chan struct{})
	defer close(stall)
	rt.workers[0].queue <- lookupReq{stall: stall} // worker 0 now blocked
	rt.workers[0].queue <- lookupReq{stall: stall} // queue now full

	a := routes[0].Prefix.First()
	if home := rt.Snapshot().Home(a); home != 0 {
		t.Fatalf("probe homed to %d, want 0", home)
	}
	want, _ := fib.Lookup(a, nil)

	res, err := rt.Dispatch(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverted || res.Worker == 0 || res.Home != 0 {
		t.Fatalf("expected divert off worker 0, got %+v", res)
	}
	if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
		t.Fatalf("diverted answer %+v, want hop %d", res, want)
	}
	if st := rt.Stats(); st.Diverted != 1 {
		t.Fatalf("divert accounting: %+v", st)
	}
}

func TestUpdateBatching(t *testing.T) {
	_, routes := testRoutes(t, 3000, 26)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	gen, err := tracegen.NewUpdateGen(tracegenFIB(t, routes), tracegen.UpdateConfig{Seed: 26, Messages: 2000})
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.NextN(2000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(part []tracegen.Update) {
			defer wg.Done()
			for _, u := range part {
				switch u.Kind {
				case tracegen.Announce:
					rt.Announce(u.Prefix, u.Hop)
				case tracegen.Withdraw:
					rt.Withdraw(u.Prefix)
				}
			}
		}(stream[g*250 : (g+1)*250])
	}
	wg.Wait()
	st := rt.Stats()
	if got := st.Announces + st.Withdraws; got != 2000 {
		t.Fatalf("applied %d updates, want 2000", got)
	}
	if st.BatchOps != 2000 || st.Batches == 0 || st.Batches > 2000 {
		t.Fatalf("batch accounting: %+v", st)
	}
	if st.TTFTotals.Total() <= 0 {
		t.Fatalf("no TTF recorded: %+v", st.TTFTotals)
	}
	// No-op batches (all ops compressed away) skip publication, so only
	// the batches that changed the table advanced the version.
	if st.SnapshotVersion != 1+uint64(st.Batches-st.NoopBatches) {
		t.Fatalf("version %d != 1+(batches %d - noop %d)", st.SnapshotVersion, st.Batches, st.NoopBatches)
	}
	// The published snapshot must equal the writer-owned table exactly.
	want := rt.upd.Table().Routes()
	got := rt.Snapshot().Routes()
	if len(want) != len(got) {
		t.Fatalf("snapshot has %d routes, updater %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("snapshot[%d] = %v, updater %v", i, got[i], want[i])
		}
	}
}

func TestDispatchBatchMatchesFIB(t *testing.T) {
	fib, routes := testRoutes(t, 4000, 51)
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rng := rand.New(rand.NewSource(51))
	addrs := make([]ip.Addr, 1000)
	for i := range addrs {
		addrs[i] = ip.Addr(rng.Uint32())
	}
	out, err := rt.DispatchBatch(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(addrs) {
		t.Fatalf("batch returned %d results for %d addrs", len(out), len(addrs))
	}
	for i, a := range addrs {
		want, _ := fib.Lookup(a, nil)
		if out[i].Found != (want != ip.NoRoute) || (out[i].Found && out[i].Hop != want) {
			t.Fatalf("batch[%d] (%s) = %+v, want hop %d", i, a, out[i], want)
		}
		if out[i].Home != rt.Snapshot().Home(a) {
			t.Fatalf("batch[%d] home = %d, want %d", i, out[i].Home, rt.Snapshot().Home(a))
		}
		if !out[i].Diverted && out[i].Worker != out[i].Home {
			t.Fatalf("batch[%d] served by %d, home %d, not diverted", i, out[i].Worker, out[i].Home)
		}
	}
	st := rt.Stats()
	if st.Dispatched != 1000 || st.DispatchBatches != 1 {
		t.Fatalf("batch accounting: dispatched %d, batches %d", st.Dispatched, st.DispatchBatches)
	}
	var served int64
	for _, v := range st.WorkerServed {
		served += v
	}
	if served != 1000 {
		t.Fatalf("workers served %d, want 1000", served)
	}
	// Second call reuses the caller's result slice.
	out2, err := rt.DispatchBatch(addrs[:64], out)
	if err != nil {
		t.Fatal(err)
	}
	if &out2[0] != &out[0] || len(out2) != 64 {
		t.Fatal("DispatchBatch did not reuse the output slice")
	}
	if empty, err := rt.DispatchBatch(nil, nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
}

func TestRuntimeLookupBatch(t *testing.T) {
	fib, routes := testRoutes(t, 3000, 52)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rng := rand.New(rand.NewSource(52))
	addrs := make([]ip.Addr, 500)
	for i := range addrs {
		addrs[i] = ip.Addr(rng.Uint32())
	}
	out, version := rt.LookupBatch(addrs, nil)
	if version != rt.Snapshot().Version {
		t.Fatalf("batch version %d, snapshot %d", version, rt.Snapshot().Version)
	}
	for i, a := range addrs {
		want, _ := fib.Lookup(a, nil)
		if out[i].Found != (want != ip.NoRoute) || (out[i].Found && out[i].Hop != want) {
			t.Fatalf("batch[%d] (%s) = %+v, want hop %d", i, a, out[i], want)
		}
	}
	if st := rt.Stats(); st.SnapshotLookups != 500 {
		t.Fatalf("snapshot lookups = %d, want 500", st.SnapshotLookups)
	}
}

// TestTinyTableDivertSkipsEmptyWorkers is the regression for the load
// balancer on tables smaller than the worker count: with 2 routes and 4
// workers, workers 2 and 3 have zero-width home ranges, so a divert off
// worker 0's full queue must land on worker 1 — never on a worker that
// has no locality to contribute.
func TestTinyTableDivertSkipsEmptyWorkers(t *testing.T) {
	routes := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("192.168.0.0/16"), NextHop: 2},
	}
	rt, err := New(routes, Config{
		Workers:    4,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	snap := rt.Snapshot()
	if snap.Len() != 2 {
		t.Fatalf("compressed table has %d entries, want 2", snap.Len())
	}
	if !snap.emptyHome(2) || !snap.emptyHome(3) {
		t.Fatalf("workers 2/3 not marked empty: %v", snap.empty)
	}

	// Stall worker 0 and fill its 1-deep queue, so a lookup homed to it
	// must take the divert path.
	stall := make(chan struct{})
	defer close(stall)
	rt.workers[0].queue <- lookupReq{stall: stall}
	rt.workers[0].queue <- lookupReq{stall: stall}

	a := ip.MustParseAddr("10.1.2.3")
	if home := snap.Home(a); home != 0 {
		t.Fatalf("probe homed to %d, want 0", home)
	}
	for i := 0; i < 16; i++ {
		res, err := rt.Dispatch(a)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Diverted {
			t.Fatalf("dispatch %d not diverted: %+v", i, res)
		}
		if res.Worker != 1 {
			t.Fatalf("dispatch %d diverted to worker %d (empty range), want 1", i, res.Worker)
		}
		if !res.Found || res.Hop != 1 {
			t.Fatalf("dispatch %d wrong answer: %+v", i, res)
		}
	}
	if ll := rt.leastLoaded(0); ll != 1 {
		t.Fatalf("leastLoaded(0) = %d, want 1", ll)
	}
}

// TestTinyTableDefaultConfig: a FIB far smaller than any bucket count
// serves under the zero Config. (While the writer drove a simulated line
// card, New refused any table with fewer than 32 compressed entries.)
func TestTinyTableDefaultConfig(t *testing.T) {
	routes := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("10.1.0.0/16"), NextHop: 2},
		{Prefix: ip.MustParsePrefix("192.168.0.0/16"), NextHop: 3},
	}
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatalf("New on a 3-route FIB: %v", err)
	}
	defer rt.Close()
	check := func(addr string, want ip.NextHop) {
		t.Helper()
		a := ip.MustParseAddr(addr)
		hop, _, ok := rt.Lookup(a)
		if ok != (want != ip.NoRoute) || hop != want {
			t.Fatalf("Lookup(%s) = %d,%v want %d", addr, hop, ok, want)
		}
		res, err := rt.Dispatch(a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != (want != ip.NoRoute) || res.Hop != want {
			t.Fatalf("Dispatch(%s) = %+v want %d", addr, res, want)
		}
	}
	check("10.1.2.3", 2)
	check("10.2.0.1", 1)
	check("172.16.0.1", ip.NoRoute)
	if _, err := rt.Announce(ip.MustParsePrefix("172.16.0.0/12"), 4); err != nil {
		t.Fatal(err)
	}
	check("172.16.0.1", 4)
	if _, err := rt.Withdraw(ip.MustParsePrefix("10.1.0.0/16")); err != nil {
		t.Fatal(err)
	}
	check("10.1.2.3", 1)

	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New accepted an empty routing table")
	}
}

// TestSnapshotIndexPatchedUnderChurn runs update batches through the
// writer and checks that the incrementally-patched stride index equals a
// from-scratch rebuild of the final table — the compounding-error
// regression for the patch path.
func TestSnapshotIndexPatchedUnderChurn(t *testing.T) {
	_, routes := testRoutes(t, 3000, 53)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	gen, err := tracegen.NewUpdateGen(tracegenFIB(t, routes), tracegen.UpdateConfig{
		Seed: 53, Messages: 3000, WithdrawFrac: 0.35, NewPrefixFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stream := gen.NextN(3000)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(part []tracegen.Update) {
			defer wg.Done()
			for _, u := range part {
				switch u.Kind {
				case tracegen.Announce:
					rt.Announce(u.Prefix, u.Hop)
				case tracegen.Withdraw:
					rt.Withdraw(u.Prefix)
				}
			}
		}(stream[g*500 : (g+1)*500])
	}
	wg.Wait()
	snap := rt.Snapshot()
	if snap.Version == 1 {
		t.Fatal("no batches applied")
	}
	_, want := indexOver(snap.Routes())
	for b := 0; b <= strideBuckets; b++ {
		if l1Cut(snap.index.l1[b]) != l1Cut(want.l1[b]) {
			t.Fatalf("after churn: patched cut[%#x] = %d, rebuild %d", b, l1Cut(snap.index.l1[b]), l1Cut(want.l1[b]))
		}
	}
}

func TestCloseRejectsAndIsIdempotent(t *testing.T) {
	_, routes := testRoutes(t, 1000, 27)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close() // idempotent
	if _, err := rt.Dispatch(ip.MustParseAddr("10.0.0.1")); err != ErrClosed {
		t.Fatalf("Dispatch after close: %v", err)
	}
	if _, err := rt.Announce(ip.MustParsePrefix("10.0.0.0/24"), 1); err != ErrClosed {
		t.Fatalf("Announce after close: %v", err)
	}
	if _, err := rt.Withdraw(ip.MustParsePrefix("10.0.0.0/24")); err != ErrClosed {
		t.Fatalf("Withdraw after close: %v", err)
	}
	// The last snapshot stays readable — RCU readers are never cut off.
	if _, _, ok := rt.Lookup(ip.MustParseAddr("0.0.0.0")); ok {
		// Either answer is fine; this just must not panic.
		_ = ok
	}
}

func TestStatsPrometheusRendering(t *testing.T) {
	_, routes := testRoutes(t, 1000, 28)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Lookup(ip.MustParseAddr("10.0.0.1"))
	rt.Dispatch(ip.MustParseAddr("10.0.0.2"))
	rt.Announce(ip.MustParsePrefix("203.0.113.0/24"), 5)
	var sb strings.Builder
	if err := rt.Stats().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"clue_serve_snapshot_version 2",
		"clue_serve_snapshot_lookups_total 1",
		"clue_serve_dispatched_total 1",
		"clue_serve_announces_total 1",
		"clue_serve_ttf_tcam_ns_total",
		"clue_serve_update_noop_batches_total 0",
		`clue_serve_worker_served_total{worker="0"}`,
		"entered the bounded retry loop (counted once, on the first retry)",
		// Native histogram series: TYPE line, at least one cumulative
		// bucket, the +Inf closing bucket, and sum/count. TTF histograms
		// are fed by the announce above; dispatch/lookup histograms may
		// be empty here (sampled), but their series still render.
		"# TYPE clue_serve_ttf_tcam_latency_ns histogram",
		`clue_serve_ttf_tcam_latency_ns_bucket{le="+Inf"} 1`,
		"clue_serve_ttf_tcam_latency_ns_count 1",
		"clue_serve_ttf_tcam_latency_ns_sum",
		"# TYPE clue_serve_snapshot_lookup_latency_ns histogram",
		"# TYPE clue_serve_dispatch_home_latency_ns histogram",
		"# TYPE clue_serve_dispatch_diverted_latency_ns histogram",
		"# TYPE clue_serve_dispatch_batch_latency_ns histogram",
		"# TYPE clue_serve_snapshot_swap_latency_ns histogram",
		"# TYPE clue_serve_queue_depth histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "blocked with all queues full") {
		t.Error("stale overflow_blocked HELP text still present")
	}
}
