package serve

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"clue/internal/ip"
)

// TestEnqueueFallbackReachesAnyHealthyWorker is the regression for the
// dispatch fallback cascade: with the home worker down and the
// locality-preferred divert target's queue full, the any-healthy
// fallback must still place the request on a healthy worker with queue
// space — even one leastLoaded skips for having an empty home range.
// Before the fix the fallback arm was nested so it only
// ran when leastLoaded found no target at all, so this exact state sent
// dispatches into the retry loop until ErrEnqueueTimeout while worker 2
// sat idle; on the pre-fix code this test fails with a timeout error.
func TestEnqueueFallbackReachesAnyHealthyWorker(t *testing.T) {
	routes := []ip.Route{
		{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustParsePrefix("192.168.0.0/16"), NextHop: 2},
	}
	rt, err := New(routes, Config{
		Workers:        3,
		QueueDepth:     1,
		EnqueueRetries: 2,
		EnqueueTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// 2 routes over 3 workers: worker 2 has a zero-width home range, so
	// leastLoaded never offers it as a divert target.
	snap := rt.Snapshot()
	if snap.emptyHome(0) || snap.emptyHome(1) || !snap.emptyHome(2) {
		t.Fatalf("partition shape: empty=%v", snap.empty)
	}

	// Fail worker 0's state directly — no FailWorker, so no rehome: the
	// snapshot still homes its range to worker 0, exactly the window
	// between a panic and the rehome publication.
	rt.workers[0].state.Store(int32(WorkerFailed))

	// Wedge worker 1, the only leastLoaded-eligible divert target: park
	// its goroutine on a stall and fill its 1-deep queue.
	stall := make(chan struct{})
	defer close(stall)
	rt.workers[1].queue <- lookupReq{stall: stall}
	rt.workers[1].queue <- lookupReq{stall: stall}

	a := ip.MustParseAddr("10.1.2.3")
	if home := snap.Home(a); home != 0 {
		t.Fatalf("probe homed to %d, want 0", home)
	}
	batch, out, done := []ip.Addr{a}, make([]Result, 1), make(chan struct{}, 1)
	if err := rt.enqueue(lookupReq{home: 0, batch: batch, out: out, done: done}); err != nil {
		t.Fatalf("enqueue with home down and divert target full: %v (want fallback to worker 2)", err)
	}
	<-done
	res := out[0]
	if res.Worker != 2 || !res.Diverted {
		t.Fatalf("served by worker %d (diverted=%v), want fallback to worker 2", res.Worker, res.Diverted)
	}
	if !res.Found || res.Hop != 1 {
		t.Fatalf("fallback answer wrong: %+v", res)
	}
	if st := rt.Stats(); st.EnqueueTimeouts != 0 {
		t.Fatalf("fallback took the timeout path: %d timeouts", st.EnqueueTimeouts)
	}

	// With every worker out of service the same state must degrade to
	// ErrNoHealthyWorkers, not a timeout.
	rt.workers[1].state.Store(int32(WorkerFailed))
	rt.workers[2].state.Store(int32(WorkerFailed))
	err = rt.enqueue(lookupReq{home: 0, batch: batch, out: out, done: done})
	if !errors.Is(err, ErrNoHealthyWorkers) {
		t.Fatalf("enqueue with all workers down = %v, want ErrNoHealthyWorkers", err)
	}
	// Restore health so Close's drain finds sane states.
	for _, w := range rt.workers {
		w.state.Store(int32(WorkerHealthy))
	}
}

// TestSnapshotHomeNeverReturnsEmptyWorker pins the Snapshot.Home
// contract from its doc comment: workers with empty home ranges — down
// workers excluded from the recut, or surplus workers on tiny tables —
// are never returned while any non-empty worker exists. The down-worker-0
// rows are the regression shape: worker 0 inherits the first survivor's
// start, so the start count in Home can land on it.
func TestSnapshotHomeNeverReturnsEmptyWorker(t *testing.T) {
	_, routes := testRoutes(t, 500, 61)
	probes := []ip.Addr{
		0,
		ip.MustParseAddr("10.0.0.1"),
		ip.MustParseAddr("128.0.0.1"),
		routes[0].Prefix.First(),
		routes[len(routes)/2].Prefix.First(),
		routes[len(routes)-1].Prefix.First(),
		ip.Addr(^uint32(0)), // the max address hits the trailing sentinel
	}
	cases := []struct {
		name    string
		workers int
		routes  []ip.Route
		down    []bool
	}{
		{"all healthy", 4, routes, nil},
		{"worker 0 down", 4, routes, []bool{true, false, false, false}},
		{"workers 0 and 1 down", 4, routes, []bool{true, true, false, false}},
		{"only worker 3 up", 4, routes, []bool{true, true, true, false}},
		{"middle worker down", 4, routes, []bool{false, false, true, false}},
		{"last worker down", 4, routes, []bool{false, false, false, true}},
		{"worker 0 down, tiny table", 4, routes[:2], []bool{true, false, false, false}},
		{"worker 0 down, empty table", 4, nil, []bool{true, false, false, false}},
		{"surplus workers, tiny table", 8, routes[:3], nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := snapshotShell(1, tc.routes, tc.workers, tc.down, nil)
			for _, a := range probes {
				h := s.Home(a)
				if h < 0 || h >= tc.workers {
					t.Fatalf("Home(%s) = %d out of range", a, h)
				}
				if s.empty[h] {
					t.Errorf("Home(%s) = %d, an empty-range worker (empty=%v starts=%v)",
						a, h, s.empty, s.starts)
				}
				if tc.down != nil && tc.down[h] {
					t.Errorf("Home(%s) = %d, a down worker", a, h)
				}
			}
		})
	}
}

// TestSnapshotHomeWalksUpOffEmptyWorkerZero unit-tests the defensive
// walk-up branch with a hand-built snapshot whose worker 0 is empty yet
// owns the lowest start — the shape the doc comment promises to route
// around even though snapshotShell's inheritance invariant makes it
// unreachable through the constructors.
func TestSnapshotHomeWalksUpOffEmptyWorkerZero(t *testing.T) {
	s := &Snapshot{
		starts: []ip.Addr{0, 100, 200},
		empty:  []bool{true, false, false},
	}
	cases := []struct {
		addr ip.Addr
		want int
	}{
		{0, 1},   // lands on empty worker 0, must walk up to 1
		{99, 1},  // same: anything below starts[1]
		{100, 1}, // worker 1's own range
		{250, 2}, // worker 2's range
	}
	for _, tc := range cases {
		if got := s.Home(tc.addr); got != tc.want {
			t.Errorf("Home(%d) = %d, want %d", tc.addr, got, tc.want)
		}
	}
}

// homeBySearch is Snapshot.Home as a binary search over starts — the
// reference the branch-free count in Home must reproduce.
func homeBySearch(s *Snapshot, addr ip.Addr) int {
	i := sort.Search(len(s.starts), func(i int) bool {
		return s.starts[i] > addr
	}) - 1
	if i < 0 {
		i = 0
	}
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

// TestSnapshotHomeMatchesSearch pins Home's branch-free count to the
// binary search it replaced, across random addresses, every cut point
// and its neighbours, and every partition layout the constructors
// produce: even cuts, down workers (worker 0 included), trailing empty
// workers behind the max-address sentinel, more workers than routes,
// and rebalancer plans — plus the hand-built empty-worker-0 shape.
func TestSnapshotHomeMatchesSearch(t *testing.T) {
	_, routes := testRoutes(t, 500, 64)
	rng := rand.New(rand.NewSource(64))
	randomPlan := func(workers int) []ip.Addr {
		plan := make([]ip.Addr, workers)
		for j := 1; j < workers; j++ {
			plan[j] = ip.Addr(rng.Uint32())
		}
		sort.Slice(plan, func(a, b int) bool { return plan[a] < plan[b] })
		return plan
	}
	layouts := []struct {
		name string
		s    *Snapshot
	}{
		{"one worker", snapshotShell(1, routes, 1, nil, nil)},
		{"all healthy", snapshotShell(1, routes, 4, nil, nil)},
		{"worker 0 down", snapshotShell(1, routes, 4, []bool{true, false, false, false}, nil)},
		{"workers 0 and 1 down", snapshotShell(1, routes, 5, []bool{true, true, false, false, false}, nil)},
		{"trailing workers down", snapshotShell(1, routes, 5, []bool{false, false, false, true, true}, nil)},
		{"only last worker up", snapshotShell(1, routes, 4, []bool{true, true, true, false}, nil)},
		{"surplus workers, tiny table", snapshotShell(1, routes[:3], 8, nil, nil)},
		{"worker 0 down, tiny table", snapshotShell(1, routes[:2], 6, []bool{true, false, false, false, false, false}, nil)},
		{"empty table", snapshotShell(1, nil, 3, nil, nil)},
		{"planned cuts", snapshotShell(1, routes, 4, nil, randomPlan(4))},
		{"planned cuts, 7 workers", snapshotShell(1, routes, 7, nil, randomPlan(7))},
		{"colliding plan", snapshotShell(1, routes, 4, nil, []ip.Addr{0, 5, 5, 5})},
		{"empty worker 0 at start 0", &Snapshot{starts: []ip.Addr{0, 100, 200}, empty: []bool{true, false, false}}},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			probes := []ip.Addr{0, ip.Addr(^uint32(0))}
			for _, st := range l.s.starts {
				probes = append(probes, st-1, st, st+1)
			}
			for i := 0; i < 4000; i++ {
				probes = append(probes, ip.Addr(rng.Uint32()))
			}
			for _, a := range probes {
				if got, want := l.s.Home(a), homeBySearch(l.s, a); got != want {
					t.Fatalf("Home(%s) = %d, search says %d (starts=%v empty=%v)",
						a, got, want, l.s.starts, l.s.empty)
				}
			}
		})
	}
}

// TestAnswerAfterPanicSingle drives worker.handle with a poisoned
// one-address request (Dispatch's shape) and checks the recovery contract: the dispatcher still
// gets the correct answer (computed from the bare snapshot), the worker
// is marked failed, and the panic is accounted exactly once.
func TestAnswerAfterPanicSingle(t *testing.T) {
	fib, routes := testRoutes(t, 2000, 62)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	w := rt.workers[1]
	a := routes[len(routes)/2].Prefix.First()
	out, done := make([]Result, 1), make(chan struct{}, 1)
	w.handle(lookupReq{home: 1, batch: []ip.Addr{a}, out: out, done: done, poison: true})

	<-done
	res := out[0]
	want, _ := fib.Lookup(a, nil)
	if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
		t.Fatalf("post-panic answer %+v, want hop %d", res, want)
	}
	if res.Worker != 1 || res.Home != 1 || res.Diverted {
		t.Fatalf("post-panic provenance wrong: %+v", res)
	}
	if res.Version == 0 {
		t.Fatalf("post-panic result carries no snapshot version: %+v", res)
	}
	if got := WorkerState(w.state.Load()); got != WorkerFailed {
		t.Fatalf("worker state after panic = %v, want failed", got)
	}
	st := rt.Stats()
	if st.WorkerPanics != 1 {
		t.Fatalf("worker panics = %d, want 1", st.WorkerPanics)
	}

	// The runtime stays serviceable: dispatches route around the failed
	// worker and the answers stay correct.
	for i := 0; i < 200; i++ {
		a := routes[i%len(routes)].Prefix.First()
		res, err := rt.Dispatch(a)
		if err != nil {
			t.Fatalf("Dispatch after panic: %v", err)
		}
		if res.Worker == 1 {
			t.Fatalf("dispatch served by failed worker: %+v", res)
		}
		want, _ := fib.Lookup(a, nil)
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
			t.Fatalf("Dispatch(%s) after panic = %+v, want %d", a, res, want)
		}
	}
}

// TestAnswerAfterPanicBatch is the batch-request variant: a poisoned
// batch must still fill every out slot from the snapshot and send the
// single completion sentinel the dispatcher is waiting on.
func TestAnswerAfterPanicBatch(t *testing.T) {
	fib, routes := testRoutes(t, 2000, 63)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	w := rt.workers[0]
	batch := make([]ip.Addr, 64)
	for i := range batch {
		batch[i] = routes[(i*31)%len(routes)].Prefix.First()
	}
	out := make([]Result, len(batch))
	done := make(chan struct{}, 1)
	w.handle(lookupReq{home: 0, batch: batch, out: out, done: done, poison: true, diverted: true})

	<-done // the sentinel: without it the dispatcher would hang
	for i, a := range batch {
		want, _ := fib.Lookup(a, nil)
		if out[i].Found != (want != ip.NoRoute) || (out[i].Found && out[i].Hop != want) {
			t.Fatalf("post-panic batch[%d] = %+v, want hop %d", i, out[i], want)
		}
		if out[i].Worker != 0 || out[i].Home != 0 || !out[i].Diverted {
			t.Fatalf("post-panic batch[%d] provenance wrong: %+v", i, out[i])
		}
	}
	if got := WorkerState(w.state.Load()); got != WorkerFailed {
		t.Fatalf("worker state after batch panic = %v, want failed", got)
	}
	if st := rt.Stats(); st.WorkerPanics != 1 {
		t.Fatalf("worker panics = %d, want 1", st.WorkerPanics)
	}
}
