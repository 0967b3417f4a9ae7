package serve

import (
	"testing"

	"clue/internal/ip"
)

// TestNoopBatchSkipsPublication is the regression for the no-op batch
// path: a batch whose every op changed nothing (withdraw-of-absent) must
// not copy the table or bump the version — the previously published
// snapshot stays in place, pointer-identical.
func TestNoopBatchSkipsPublication(t *testing.T) {
	_, routes := testRoutes(t, 2000, 64)
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	before := rt.Snapshot()
	absent := ip.MustParsePrefix("198.51.100.0/28")
	if _, _, ok := rt.Lookup(absent.First()); ok {
		t.Fatalf("probe prefix %s unexpectedly present", absent)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Withdraw(absent); err != nil {
			t.Fatalf("withdraw of absent prefix: %v", err)
		}
	}

	if after := rt.Snapshot(); after != before {
		t.Fatalf("no-op batch published a new snapshot: version %d -> %d", before.Version, after.Version)
	}
	st := rt.Stats()
	if st.Withdraws != 3 || st.UpdateErrors != 0 {
		t.Fatalf("op accounting: %+v", st)
	}
	if st.NoopBatches == 0 || st.NoopBatches != st.Batches {
		t.Fatalf("noop batches = %d of %d batches, want all", st.NoopBatches, st.Batches)
	}
	if st.SnapshotVersion != 1 {
		t.Fatalf("snapshot version = %d, want 1", st.SnapshotVersion)
	}

	// A real change still publishes normally afterwards.
	p := ip.MustParsePrefix("203.0.113.0/24")
	if _, err := rt.Announce(p, 7); err != nil {
		t.Fatal(err)
	}
	if hop, _, ok := rt.Lookup(ip.MustParseAddr("203.0.113.9")); !ok || hop != 7 {
		t.Fatalf("lookup after announce = %d,%v want 7", hop, ok)
	}
	st = rt.Stats()
	if after := rt.Snapshot(); after == before || after.Version != 2 {
		t.Fatalf("real batch after no-ops did not publish: version %d", after.Version)
	}
	if st.Batches-st.NoopBatches != 1 {
		t.Fatalf("publishing batches = %d, want 1 (%+v)", st.Batches-st.NoopBatches, st)
	}
}

// TestLatencyStatsPopulated exercises every histogram feed — sampled
// snapshot lookups, sampled dispatches, whole-call batch dispatches,
// per-op TTF, snapshot swaps and queue-depth samples — and checks the
// distributions surface through Stats with coherent summaries.
func TestLatencyStatsPopulated(t *testing.T) {
	_, routes := testRoutes(t, 3000, 65)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// 512 lookups cross the 1-in-128 sampling mask several times.
	for i := 0; i < 512; i++ {
		rt.Lookup(routes[i%len(routes)].Prefix.First())
	}
	// 256 dispatches cross the 1-in-8 mask; queue-depth samples ride the
	// same traffic through the 1-in-32 mask.
	for i := 0; i < 256; i++ {
		if _, err := rt.Dispatch(routes[i%len(routes)].Prefix.First()); err != nil {
			t.Fatal(err)
		}
	}
	addrs := make([]ip.Addr, 128)
	for i := range addrs {
		addrs[i] = routes[(i*17)%len(routes)].Prefix.First()
	}
	if _, err := rt.DispatchBatch(addrs, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p := ip.MustParsePrefix("203.0.113.0/24")
		if _, err := rt.Announce(p, ip.NextHop(i+1)); err != nil {
			t.Fatal(err)
		}
	}

	lat := rt.Stats().Latency
	checks := []struct {
		name string
		s    LatencySummary
	}{
		{"snapshot_lookup", lat.SnapshotLookup},
		{"dispatch_home", lat.DispatchHome},
		{"dispatch_batch", lat.DispatchBatch},
		{"ttf_trie", lat.TTFTrie},
		{"ttf_tcam", lat.TTFTCAM},
		{"ttf_dred", lat.TTFDRed},
		{"snapshot_swap", lat.SnapshotSwap},
		{"queue_depth", lat.QueueDepth},
	}
	for _, c := range checks {
		if c.s.Count == 0 {
			t.Errorf("%s histogram empty after traffic", c.name)
			continue
		}
		if c.s.P50 > c.s.P90 || c.s.P90 > c.s.P99 || c.s.P99 > c.s.Max {
			t.Errorf("%s percentiles not monotone: %+v", c.name, c.s)
		}
		if len(c.s.Buckets) == 0 {
			t.Errorf("%s summary has no buckets: %+v", c.name, c.s)
		}
	}
	// Sampling rates: lookups record 1 in 128, dispatches 1 in 8.
	if want := int64(512 / 128); lat.SnapshotLookup.Count != want {
		t.Errorf("snapshot lookup samples = %d, want %d", lat.SnapshotLookup.Count, want)
	}
	dispatchSamples := lat.DispatchHome.Count + lat.DispatchDiverted.Count
	if want := int64(256 / 8); dispatchSamples != want {
		t.Errorf("dispatch samples = %d, want %d", dispatchSamples, want)
	}
	if lat.DispatchBatch.Count != 1 {
		t.Errorf("dispatch batch count = %d, want 1", lat.DispatchBatch.Count)
	}
	if lat.TTFTrie.Count != 4 || lat.SnapshotSwap.Count == 0 {
		t.Errorf("update histograms: ttf count %d (want 4), swap count %d", lat.TTFTrie.Count, lat.SnapshotSwap.Count)
	}
	if p99 := lat.DispatchP99Ns(); p99 <= 0 {
		t.Errorf("DispatchP99Ns = %g, want positive", p99)
	}
}

// TestDispatchP99NsPicksWorstPath pins the chaos-harness bound to the
// worse of the two dispatch outcome paths.
func TestDispatchP99NsPicksWorstPath(t *testing.T) {
	l := LatencyStats{
		DispatchHome:     LatencySummary{P99: 100},
		DispatchDiverted: LatencySummary{P99: 900},
	}
	if got := l.DispatchP99Ns(); got != 900 {
		t.Fatalf("DispatchP99Ns = %g, want 900", got)
	}
}

// TestCanonicalHashTracksTable: the snapshot digest is stable across
// identical content (including a rebuilt runtime over the same routes),
// changes when the table changes, and returns to the original value
// when the change is undone — the property the scenario lab's
// time-to-converge probe rests on.
func TestCanonicalHashTracksTable(t *testing.T) {
	_, routes := testRoutes(t, 3000, 17)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h0 := rt.TableHash()
	if h0 != rt.TableHash() {
		t.Fatal("hash not stable across calls")
	}
	if got := rt.Stats().TableHash; got != h0 {
		t.Fatalf("Stats().TableHash = %x, want %x", got, h0)
	}

	rt2, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if h := rt2.TableHash(); h != h0 {
		t.Fatalf("independent runtime over same routes hashes %x, want %x", h, h0)
	}

	p := ip.MustParsePrefix("203.0.113.0/24")
	if _, err := rt.Announce(p, 9); err != nil {
		t.Fatal(err)
	}
	h1 := rt.TableHash()
	if h1 == h0 {
		t.Fatal("hash unchanged after announce")
	}
	if _, err := rt.Withdraw(p); err != nil {
		t.Fatal(err)
	}
	if h2 := rt.TableHash(); h2 != h0 {
		t.Fatalf("hash after undo = %x, want original %x", h2, h0)
	}
}

// TestStormPeakCounters: the high-water marks rise with the table and
// batch sizes and never fall back when the storm recedes.
func TestStormPeakCounters(t *testing.T) {
	_, routes := testRoutes(t, 500, 21)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	base := rt.Stats()
	if base.PeakRoutes < int64(base.Routes) {
		t.Fatalf("initial PeakRoutes %d < routes %d", base.PeakRoutes, base.Routes)
	}
	// Grow the table with fresh disjoint /24s, then withdraw them all.
	var grown []ip.Prefix
	for i := 0; i < 64; i++ {
		p := ip.MustPrefix(ip.Addr(uint32(198)<<24|uint32(18)<<16|uint32(i)<<8), 24)
		grown = append(grown, p)
		if _, err := rt.Announce(p, 7); err != nil {
			t.Fatal(err)
		}
	}
	mid := rt.Stats()
	if mid.PeakRoutes <= base.PeakRoutes {
		t.Fatalf("PeakRoutes did not rise: %d -> %d", base.PeakRoutes, mid.PeakRoutes)
	}
	for _, p := range grown {
		if _, err := rt.Withdraw(p); err != nil {
			t.Fatal(err)
		}
	}
	end := rt.Stats()
	if end.PeakRoutes < mid.PeakRoutes {
		t.Fatalf("PeakRoutes fell after storm: %d -> %d", mid.PeakRoutes, end.PeakRoutes)
	}
	if end.Routes >= int(end.PeakRoutes) {
		t.Fatalf("table %d did not shrink below peak %d", end.Routes, end.PeakRoutes)
	}
	if end.PeakBatchOps < 1 || end.PeakPendingUpdates < 0 {
		t.Fatalf("degenerate peaks: batch %d, pending %d", end.PeakBatchOps, end.PeakPendingUpdates)
	}
}
