package feed

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

// memApplier is a lightweight Applier over a plain trie, with the same
// canonical-compression contract the serve runtime keeps. corrupt()
// lets hash-mismatch tests damage the replica out of band.
type memApplier struct {
	mu     sync.Mutex
	mirror *trie.Trie
	resets int
}

func newMemApplier() *memApplier { return &memApplier{mirror: trie.New()} }

func (m *memApplier) Reset(routes []ip.Route) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mirror = trie.FromRoutes(routes)
	m.resets++
	return nil
}

func (m *memApplier) Apply(recs []ribio.UpdateRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range recs {
		if u.Withdraw {
			m.mirror.Delete(u.Prefix, nil)
		} else {
			m.mirror.Insert(u.Prefix, u.NextHop, nil)
		}
	}
	return nil
}

func (m *memApplier) CanonicalHash() uint64 {
	return onrtc.Digest(m.canonicalRoutes())
}

func (m *memApplier) canonicalRoutes() []ip.Route {
	m.mu.Lock()
	defer m.mu.Unlock()
	return onrtc.Compress(m.mirror).Routes()
}

func (m *memApplier) corrupt(p ip.Prefix, hop ip.NextHop) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mirror.Insert(p, hop, nil)
}

// testTrace builds a base table and an update stream over it.
func testTrace(t *testing.T, seed int64, routes, messages int) ([]ip.Route, []ribio.UpdateRecord) {
	t.Helper()
	fib, err := fibgen.Generate(fibgen.Config{Seed: seed, Routes: routes})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tracegen.NewUpdateGen(fib, tracegen.UpdateConfig{Seed: seed, Messages: messages})
	if err != nil {
		t.Fatal(err)
	}
	return fib.Routes(), tracegen.Records(g.NextN(messages))
}

// batches splits recs into groups of n.
func batches(recs []ribio.UpdateRecord, n int) [][]ribio.UpdateRecord {
	var out [][]ribio.UpdateRecord
	for len(recs) > 0 {
		k := min(n, len(recs))
		out = append(out, recs[:k])
		recs = recs[k:]
	}
	return out
}

func startCollector(t *testing.T, cfg CollectorConfig) *Collector {
	t.Helper()
	c, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func dialTo(c *Collector) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		return net.DialTimeout("tcp", c.Addr().String(), time.Second)
	}
}

func startFollower(t *testing.T, cfg FollowerConfig) *Follower {
	t.Helper()
	f, err := NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// canonicalRoutes is an applier's canonical compressed table, read the
// way each implementation holds it.
func canonicalRoutes(t *testing.T, a Applier) []ip.Route {
	t.Helper()
	switch a := a.(type) {
	case *memApplier:
		return a.canonicalRoutes()
	case *RuntimeApplier:
		return a.Runtime().Snapshot().Routes()
	}
	t.Fatalf("no canonical table for %T", a)
	return nil
}

// expectRoutes asserts got is route-for-route the table want.
func expectRoutes(t *testing.T, who string, got, want []ip.Route) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d canonical routes, want %d", who, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: canonical route %d = %v, want %v", who, i, got[i], want[i])
		}
	}
}

// expectConverged asserts the applier's canonical table is
// byte-identical to the collector mirror's canonical compression, and
// that its O(1) digest is that table's recomputed one.
func expectConverged(t *testing.T, c *Collector, a Applier, who string) {
	t.Helper()
	want := onrtc.Compress(trie.FromRoutes(c.Routes())).Routes()
	expectRoutes(t, who, canonicalRoutes(t, a), want)
	if got := a.CanonicalHash(); got != CanonicalHash(want) {
		t.Fatalf("%s: digest %016x, its table recomputes to %016x", who, got, CanonicalHash(want))
	}
}

func TestFollowerBootstrapAndStream(t *testing.T) {
	base, recs := testTrace(t, 1, 300, 120)
	c := startCollector(t, CollectorConfig{BaseRoutes: base})
	app := newMemApplier()
	f := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: app, Logf: t.Logf})

	var last uint64
	for _, b := range batches(recs, 8) {
		seq, err := c.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := f.WaitSeq(last, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	expectConverged(t, c, app, "follower")
	// A follower that connected after the last Apply reaches `last` with
	// the bootstrap snapshot alone; its hash frame is the next frame on
	// the wire, so give it a moment rather than racing it.
	for deadline := time.Now().Add(5 * time.Second); f.Stats().HashChecks == 0 && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	s := f.Stats()
	if s.SnapshotLoads != 1 {
		t.Fatalf("SnapshotLoads = %d, want 1", s.SnapshotLoads)
	}
	if s.Resumes != 0 {
		t.Fatalf("Resumes = %d, want 0", s.Resumes)
	}
	if s.HashChecks == 0 {
		t.Fatal("no hash checks ran (HashEvery default should have fired)")
	}
	if s.HashMismatches != 0 {
		t.Fatalf("HashMismatches = %d", s.HashMismatches)
	}
	if s.State != "streaming" {
		t.Fatalf("state %q, want streaming", s.State)
	}
	if err := c.WaitAcked(1, last, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTwoFollowersConvergeIdentically(t *testing.T) {
	base, recs := testTrace(t, 2, 400, 160)
	c := startCollector(t, CollectorConfig{BaseRoutes: base, HashEvery: 5})
	a1, a2 := newMemApplier(), newMemApplier()
	f1 := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: a1})
	f2 := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: a2})

	var last uint64
	for _, b := range batches(recs, 4) {
		seq, err := c.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	for i, f := range []*Follower{f1, f2} {
		if err := f.WaitSeq(last, 5*time.Second); err != nil {
			t.Fatalf("follower %d: %v", i+1, err)
		}
	}
	expectConverged(t, c, a1, "follower 1")
	expectConverged(t, c, a2, "follower 2")
	expectRoutes(t, "follower 2 against follower 1", a2.canonicalRoutes(), a1.canonicalRoutes())
}

func TestResumeAfterBriefDisconnect(t *testing.T) {
	base, recs := testTrace(t, 3, 300, 120)
	c := startCollector(t, CollectorConfig{BaseRoutes: base, Window: 256})
	app := newMemApplier()
	f := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: app, BackoffMin: time.Millisecond, Logf: t.Logf})

	bs := batches(recs, 6)
	half := len(bs) / 2
	var last uint64
	for _, b := range bs[:half] {
		seq, err := c.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := f.WaitSeq(last, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	f.BreakConn()
	for _, b := range bs[half:] {
		seq, err := c.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := f.WaitSeq(last, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	expectConverged(t, c, app, "follower")
	s := f.Stats()
	if s.Reconnects == 0 {
		t.Fatal("link cut did not register as a reconnect")
	}
	if s.Resumes == 0 {
		t.Fatal("follower re-snapshotted where a resume was possible (window not exceeded)")
	}
	if s.SnapshotLoads != 1 {
		t.Fatalf("SnapshotLoads = %d, want 1 (bootstrap only)", s.SnapshotLoads)
	}
	if app.resets != 1 {
		t.Fatalf("applier reset %d times, want 1", app.resets)
	}
}

func TestResnapshotBeyondWindow(t *testing.T) {
	base, recs := testTrace(t, 4, 300, 160)
	c := startCollector(t, CollectorConfig{BaseRoutes: base, Window: 4})
	app := newMemApplier()
	f := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: app, BackoffMin: time.Millisecond, Logf: t.Logf})

	bs := batches(recs, 4)
	seq, err := c.Apply(bs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WaitSeq(seq, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Cut the link and push far more batches than the replay window
	// holds; the resume point is trimmed away and the collector must
	// fall back to a fresh snapshot.
	f.BreakConn()
	var last uint64
	for _, b := range bs[1:] {
		if last, err = c.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitSeq(last, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	expectConverged(t, c, app, "follower")
	s := f.Stats()
	if s.SnapshotLoads < 2 {
		t.Fatalf("SnapshotLoads = %d, want >= 2 (bootstrap + re-snapshot)", s.SnapshotLoads)
	}
	cs := c.Stats()
	if cs.Snapshots < 2 {
		t.Fatalf("collector Snapshots = %d, want >= 2", cs.Snapshots)
	}
}

func TestHashMismatchForcesResync(t *testing.T) {
	base, recs := testTrace(t, 5, 300, 120)
	c := startCollector(t, CollectorConfig{BaseRoutes: base, HashEvery: 3})
	app := newMemApplier()
	f := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: app, BackoffMin: time.Millisecond, Logf: t.Logf})

	bs := batches(recs, 6)
	seq, err := c.Apply(bs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WaitSeq(seq, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Damage the replica out of band: a phantom host route no update
	// stream delivered. The next hash frame must catch it and the
	// follower must discard its state and re-bootstrap.
	app.corrupt(ip.MustParsePrefix("203.0.113.77/32"), 999)
	var last uint64
	for _, b := range bs[1:] {
		if last, err = c.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitSeq(last, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().HashChecks == 0 || f.Stats().LastApplied < last {
		if time.Now().After(deadline) {
			t.Fatal("no hash verification after corruption")
		}
		time.Sleep(time.Millisecond)
	}
	expectConverged(t, c, app, "follower")
	s := f.Stats()
	if s.HashMismatches == 0 {
		t.Fatal("corruption not detected by hash frames")
	}
	if s.SnapshotLoads < 2 {
		t.Fatalf("SnapshotLoads = %d, want >= 2 (mismatch must force a re-snapshot)", s.SnapshotLoads)
	}
}

func TestCollectorRestartHandoff(t *testing.T) {
	base, recs := testTrace(t, 6, 300, 120)
	c1 := startCollector(t, CollectorConfig{BaseRoutes: base})

	// Address indirection: the follower always dials the current
	// collector.
	var mu sync.Mutex
	cur := c1
	dial := func() (net.Conn, error) {
		mu.Lock()
		c := cur
		mu.Unlock()
		return net.DialTimeout("tcp", c.Addr().String(), time.Second)
	}
	app := newMemApplier()
	f := startFollower(t, FollowerConfig{Dial: dial, Applier: app, BackoffMin: time.Millisecond, Logf: t.Logf})

	bs := batches(recs, 6)
	half := len(bs) / 2
	var last uint64
	var err error
	for _, b := range bs[:half] {
		if last, err = c1.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitSeq(last, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Restart: the successor takes over the predecessor's mirror and
	// head, so a caught-up follower resumes without a snapshot.
	c1.Close()
	c2 := startCollector(t, CollectorConfig{BaseRoutes: c1.Routes(), StartSeq: c1.Head()})
	mu.Lock()
	cur = c2
	mu.Unlock()

	for _, b := range bs[half:] {
		if last, err = c2.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	expectConverged(t, c2, app, "follower")
	if s := f.Stats(); s.SnapshotLoads != 1 {
		t.Fatalf("SnapshotLoads = %d, want 1 (restart handoff should resume)", s.SnapshotLoads)
	}
}

func TestRuntimeApplierFollower(t *testing.T) {
	base, recs := testTrace(t, 7, 400, 120)
	c := startCollector(t, CollectorConfig{BaseRoutes: base, HashEvery: 4})
	app := NewRuntimeApplier(serve.Config{Workers: 2})
	defer app.Close()
	f := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: app, Logf: t.Logf})

	var last uint64
	for _, b := range batches(recs, 8) {
		seq, err := c.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := f.WaitSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	expectConverged(t, c, app, "runtime follower")
	rt := app.Runtime()
	if rt == nil {
		t.Fatal("runtime not built after bootstrap")
	}
	// The replicated runtime serves lookups that agree with the
	// collector's mirror.
	mirror := trie.FromRoutes(c.Routes())
	for i, r := range c.Routes() {
		if i%7 != 0 {
			continue
		}
		addr := r.Prefix.First()
		hop, _, ok := rt.Lookup(addr)
		wantHop, _ := mirror.Lookup(addr, nil)
		if !ok || hop != wantHop {
			t.Fatalf("lookup %v = %d (found %v), want %d", addr, hop, ok, wantHop)
		}
	}
	if s := f.Stats(); s.HashMismatches != 0 {
		t.Fatalf("runtime follower hash mismatches: %d", s.HashMismatches)
	}
}

// TestRuntimeApplierOnePublicationPerFrame pins the replicated write
// path's cost by count: a frame of records is one writer batch (one
// publication) on the replica, not one per record.
func TestRuntimeApplierOnePublicationPerFrame(t *testing.T) {
	const frames, perFrame = 12, 8
	base, recs := testTrace(t, 10, 400, frames*perFrame)
	c := startCollector(t, CollectorConfig{BaseRoutes: base, HashEvery: 4})
	app := NewRuntimeApplier(serve.Config{Workers: 2})
	defer app.Close()
	f := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: app, Logf: t.Logf})
	for deadline := time.Now().Add(5 * time.Second); app.Runtime() == nil || f.Stats().State != "streaming"; {
		if time.Now().After(deadline) {
			t.Fatal("follower never bootstrapped")
		}
		time.Sleep(200 * time.Microsecond)
	}
	rt := app.Runtime()
	before := rt.Stats()
	var last uint64
	for _, b := range batches(recs, perFrame) {
		seq, err := c.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := f.WaitSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	after := rt.Stats()
	if got := after.Batches - before.Batches; got != frames {
		t.Fatalf("%d frames of %d records took %d writer batches, want one per frame", frames, perFrame, got)
	}
	if got := after.BatchOps - before.BatchOps; got != frames*perFrame {
		t.Fatalf("writer batches carried %d records, want %d", got, frames*perFrame)
	}
	expectConverged(t, c, app, "runtime follower")
}

func TestRuntimeApplierReconcile(t *testing.T) {
	fib, err := fibgen.Generate(fibgen.Config{Seed: 8, Routes: 300})
	if err != nil {
		t.Fatal(err)
	}
	base := fib.Routes()
	app := NewRuntimeApplier(serve.Config{Workers: 2})
	defer app.Close()
	if err := app.Reset(base); err != nil {
		t.Fatal(err)
	}

	// Second reset to a mutated table must reconcile through the live
	// pipeline: drop some routes, rewrite some hops, add a fresh one.
	next := append([]ip.Route(nil), base[:len(base)-5]...)
	next[0].NextHop++
	next[3].NextHop += 2
	next = append(next, ip.Route{Prefix: ip.MustParsePrefix("198.51.100.0/24"), NextHop: 42})
	// The whole reconciliation (5 withdraws, 3 announces) is one writer
	// batch, not one per changed route.
	before := app.Runtime().Stats().Batches
	if err := app.Reset(next); err != nil {
		t.Fatal(err)
	}
	if got := app.Runtime().Stats().Batches - before; got != 1 {
		t.Fatalf("reconciling 8 changed routes took %d writer batches, want 1", got)
	}
	want := onrtc.Compress(trie.FromRoutes(next)).Routes()
	expectRoutes(t, "reconciled runtime", app.Runtime().Snapshot().Routes(), want)
	if got := app.CanonicalHash(); got != onrtc.Digest(want) {
		t.Fatalf("reconciled digest %016x, want %016x", got, onrtc.Digest(want))
	}
	// Resetting to the table it already holds changes nothing and
	// publishes nothing.
	before = app.Runtime().Stats().Batches
	if err := app.Reset(next); err != nil {
		t.Fatal(err)
	}
	if got := app.Runtime().Stats().Batches - before; got != 0 {
		t.Fatalf("no-op reset took %d writer batches, want 0", got)
	}
}

// TestRuntimeApplierTinySnapshot: a replica bootstraps from a snapshot of
// any size under the zero Config (the runtime used to refuse fewer than
// 32 compressed entries).
func TestRuntimeApplierTinySnapshot(t *testing.T) {
	base := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("10.1.0.0/16"), NextHop: 2},
		{Prefix: ip.MustParsePrefix("172.16.0.0/12"), NextHop: 3},
		{Prefix: ip.MustParsePrefix("192.168.0.0/16"), NextHop: 4},
		{Prefix: ip.MustParsePrefix("198.51.100.0/24"), NextHop: 5},
	}
	app := NewRuntimeApplier(serve.Config{})
	defer app.Close()
	if err := app.Reset(base); err != nil {
		t.Fatalf("Reset from a 5-route snapshot: %v", err)
	}
	if err := app.Apply([]ribio.UpdateRecord{{Prefix: ip.MustParsePrefix("203.0.113.0/24"), NextHop: 6}}); err != nil {
		t.Fatal(err)
	}
	if hop, _, ok := app.Runtime().Lookup(ip.MustParseAddr("203.0.113.9")); !ok || hop != 6 {
		t.Fatalf("Lookup after announce = %d,%v want 6", hop, ok)
	}
	if hop, _, ok := app.Runtime().Lookup(ip.MustParseAddr("10.1.2.3")); !ok || hop != 2 {
		t.Fatalf("Lookup(10.1.2.3) = %d,%v want 2", hop, ok)
	}
}

// TestCollectorApplyRejects: Apply refuses every record the followers'
// decoder would refuse, before touching the mirror — a /33 used to panic
// inside Apply, and a host-bit or withdraw-with-hop record used to enter
// the replay log and wedge every follower on it — so the stream stays
// live for the next good batch.
func TestCollectorApplyRejects(t *testing.T) {
	c := startCollector(t, CollectorConfig{BaseRoutes: []ip.Route{{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1}}})
	app := newMemApplier()
	f := startFollower(t, FollowerConfig{Dial: dialTo(c), Applier: app, Logf: t.Logf})
	for deadline := time.Now().Add(5 * time.Second); f.Stats().State != "streaming"; {
		if time.Now().After(deadline) {
			t.Fatal("follower never bootstrapped")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if _, err := c.Apply(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	good := ribio.UpdateRecord{Prefix: ip.MustParsePrefix("192.0.2.0/24"), NextHop: 4}
	for _, tc := range []struct {
		name string
		bad  ribio.UpdateRecord
	}{
		{"zero-hop announce", ribio.UpdateRecord{Prefix: ip.MustParsePrefix("10.0.0.0/8")}},
		{"length 33", ribio.UpdateRecord{Prefix: ip.Prefix{Bits: ip.MustParseAddr("10.0.0.0"), Len: 33}, NextHop: 2}},
		{"host bits", ribio.UpdateRecord{Prefix: ip.Prefix{Bits: ip.MustParseAddr("10.0.0.1"), Len: 8}, NextHop: 2}},
		{"withdraw with hop", ribio.UpdateRecord{Withdraw: true, Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 2}},
	} {
		// The bad record rides behind a good one: nothing of the batch
		// may apply.
		if _, err := c.Apply([]ribio.UpdateRecord{good, tc.bad}); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		if head := c.Head(); head != 0 {
			t.Fatalf("%s: rejected batch advanced head to %d", tc.name, head)
		}
		if n := c.Stats().Routes; n != 1 {
			t.Fatalf("%s: rejected batch changed the mirror to %d routes", tc.name, n)
		}
	}
	seq, err := c.Apply([]ribio.UpdateRecord{good})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WaitSeq(seq, 5*time.Second); err != nil {
		t.Fatalf("follower did not apply the good batch after the rejects: %v", err)
	}
	expectConverged(t, c, app, "follower")
	if s := f.Stats(); s.Reconnects != 0 || s.SnapshotLoads != 1 || s.Batches != 1 {
		t.Fatalf("follower should stream the good batch on its first session: %+v", s)
	}
}

func TestCollectorStartSeq(t *testing.T) {
	base, recs := testTrace(t, 9, 200, 10)
	c, err := NewCollector(CollectorConfig{BaseRoutes: base, StartSeq: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seq, err := c.Apply(recs[:5])
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1001 {
		t.Fatalf("first batch after StartSeq 1000 numbered %d, want 1001", seq)
	}
}

func TestFollowerConfigValidation(t *testing.T) {
	if _, err := NewFollower(FollowerConfig{Applier: newMemApplier()}); err == nil {
		t.Fatal("missing Dial accepted")
	}
	if _, err := NewFollower(FollowerConfig{Dial: func() (net.Conn, error) { return nil, fmt.Errorf("no") }}); err == nil {
		t.Fatal("missing Applier accepted")
	}
}
