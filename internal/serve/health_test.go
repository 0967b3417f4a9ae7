package serve

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"clue/internal/ip"
)

func TestConfigValidate(t *testing.T) {
	_, routes := testRoutes(t, 100, 31)
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" = config is valid
	}{
		{"defaults", Config{}, ""},
		{"explicit values", Config{Workers: 2, QueueDepth: 8}, ""},
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"negative queue depth", Config{QueueDepth: -4}, "QueueDepth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(routes, tc.cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				rt.Close()
				return
			}
			if err == nil {
				rt.Close()
				t.Fatalf("New accepted %+v, want error mentioning %q", tc.cfg, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestFailWorkerRehomesRange(t *testing.T) {
	fib, routes := testRoutes(t, 4000, 41)
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if err := rt.FailWorker(1); err != nil {
		t.Fatalf("FailWorker(1): %v", err)
	}
	if st := rt.WorkerStates(); st[1] != WorkerFailed {
		t.Fatalf("worker 1 state = %v, want failed", st[1])
	}
	snap := rt.Snapshot()

	// The failed worker's range is gone and the survivors' shares are an
	// exact even count split of the disjoint table.
	counts := make([]int, 4)
	for _, r := range snap.Routes() {
		counts[snap.Home(r.Prefix.First())]++
	}
	if counts[1] != 0 {
		t.Fatalf("failed worker still homes %d routes", counts[1])
	}
	min, max := counts[0], counts[0]
	for _, c := range []int{counts[2], counts[3]} {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 || max-min > 1 {
		t.Fatalf("survivor split %v not even", counts)
	}

	// Dispatches keep answering correctly and never land on the failed
	// worker.
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		a := ip.Addr(rng.Uint32())
		res, err := rt.Dispatch(a)
		if err != nil {
			t.Fatalf("Dispatch(%s): %v", a, err)
		}
		if res.Worker == 1 {
			t.Fatalf("Dispatch(%s) served by failed worker", a)
		}
		want, _ := fib.Lookup(a, nil)
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
			t.Fatalf("Dispatch(%s) = %+v want %d", a, res, want)
		}
	}
	if st := rt.Stats(); st.Rehomes < 1 || st.FailedWorkers != 1 {
		t.Fatalf("stats after fail: rehomes=%d failed=%d", st.Rehomes, st.FailedWorkers)
	}

	// Recovery restores the four-way split.
	if err := rt.RecoverWorker(1); err != nil {
		t.Fatalf("RecoverWorker(1): %v", err)
	}
	snap = rt.Snapshot()
	counts = make([]int, 4)
	for _, r := range snap.Routes() {
		counts[snap.Home(r.Prefix.First())]++
	}
	for w, c := range counts {
		if c == 0 {
			t.Fatalf("worker %d homes no routes after recovery: %v", w, counts)
		}
	}
	if st := rt.Stats(); st.FailedWorkers != 0 {
		t.Fatalf("failed workers after recovery: %d", st.FailedWorkers)
	}
}

// TestFailRecoverRace races FailWorker against RecoverWorker on one
// worker. Neither call may hang, the final state must be the one the
// successful calls imply (Recover succeeds only after Fail's
// transition), and the published snapshot must agree with it: a failed
// worker homes nothing, a healthy one owns a range. Run under -race.
func TestFailRecoverRace(t *testing.T) {
	_, routes := testRoutes(t, 2000, 49)
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 200; i++ {
		rehomes := rt.Stats().Rehomes
		var failErr, recoverErr error
		start := make(chan struct{})
		done := make(chan struct{}, 2)
		go func() {
			<-start
			failErr = rt.FailWorker(2)
			done <- struct{}{}
		}()
		go func() {
			<-start
			recoverErr = rt.RecoverWorker(2)
			done <- struct{}{}
		}()
		close(start)
		for k := 0; k < 2; k++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: FailWorker/RecoverWorker race hung", i)
			}
		}
		if failErr != nil {
			t.Fatalf("round %d: FailWorker of a healthy worker: %v", i, failErr)
		}
		if recoverErr != nil && !errors.Is(recoverErr, ErrWorkerState) {
			t.Fatalf("round %d: RecoverWorker: %v", i, recoverErr)
		}
		want := WorkerFailed
		if recoverErr == nil {
			want = WorkerHealthy
		}
		if got := rt.WorkerStates()[2]; got != want {
			t.Fatalf("round %d: state %v, want %v (recover err %v)", i, got, want, recoverErr)
		}
		if rt.Stats().Rehomes == rehomes {
			t.Fatalf("round %d: no re-home published", i)
		}
		slot := rt.ep.enter(1)
		emptyHome := rt.snap.Load().emptyHome(2)
		slot.exit()
		if emptyHome != (want == WorkerFailed) {
			t.Fatalf("round %d: state %v but published snapshot has empty home %v", i, want, emptyHome)
		}
		if want == WorkerFailed {
			if err := rt.RecoverWorker(2); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFailRecoverWorkerErrors(t *testing.T) {
	_, routes := testRoutes(t, 500, 42)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	for _, id := range []int{-1, 2, 99} {
		if err := rt.FailWorker(id); !errors.Is(err, ErrUnknownWorker) {
			t.Fatalf("FailWorker(%d) = %v, want ErrUnknownWorker", id, err)
		}
		if err := rt.RecoverWorker(id); !errors.Is(err, ErrUnknownWorker) {
			t.Fatalf("RecoverWorker(%d) = %v, want ErrUnknownWorker", id, err)
		}
	}
	if err := rt.RecoverWorker(0); !errors.Is(err, ErrWorkerState) {
		t.Fatalf("recover-when-healthy = %v, want ErrWorkerState", err)
	}
	if err := rt.FailWorker(0); err != nil {
		t.Fatalf("FailWorker(0): %v", err)
	}
	if err := rt.FailWorker(0); !errors.Is(err, ErrWorkerState) {
		t.Fatalf("double-fail = %v, want ErrWorkerState", err)
	}
	// Operator action never takes down the last healthy worker.
	if err := rt.FailWorker(1); !errors.Is(err, ErrWorkerState) {
		t.Fatalf("fail-last-healthy = %v, want ErrWorkerState", err)
	}
	if err := rt.RecoverWorker(0); err != nil {
		t.Fatalf("RecoverWorker(0): %v", err)
	}
}

// wedgeWorker fully wedges worker id: one stall parks its goroutine,
// then further stalls fill every queue slot, so subsequent enqueues to it
// find the queue full for as long as the wedge holds. The returned
// release un-wedges everything and is idempotent.
func wedgeWorker(t *testing.T, rt *Runtime, id int) (release func()) {
	t.Helper()
	var rels []func()
	r, err := rt.StallWorker(id)
	if err != nil {
		t.Fatalf("StallWorker(%d): %v", id, err)
	}
	rels = append(rels, r)
	// Wait for the goroutine to dequeue the parking stall, then fill the
	// now-empty queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.workers[id].queue) > 0 {
		if !time.Now().Before(deadline) {
			t.Fatalf("worker %d never dequeued the parking stall", id)
		}
		time.Sleep(100 * time.Microsecond)
	}
	for {
		r, err := rt.StallWorker(id)
		if err != nil {
			break // queue full: the wedge is complete
		}
		rels = append(rels, r)
	}
	return func() {
		for _, r := range rels {
			r()
		}
	}
}

// waitState polls until worker id reaches want (panic recovery marks the
// state from the worker goroutine, so tests must wait for it).
func waitState(t *testing.T, rt *Runtime, id int, want WorkerState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.WorkerStates()[id] == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("worker %d never reached %v (now %v)", id, want, rt.WorkerStates()[id])
}

func TestWorkerPanicRecovered(t *testing.T) {
	fib, routes := testRoutes(t, 3000, 43)
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if err := rt.PoisonWorker(2); err != nil {
		t.Fatalf("PoisonWorker(2): %v", err)
	}
	waitState(t, rt, 2, WorkerFailed)
	if st := rt.Stats(); st.WorkerPanics < 1 {
		t.Fatalf("worker panics = %d, want >= 1", st.WorkerPanics)
	}

	// The panicking worker's goroutine survived: dispatches route around
	// it and stay correct.
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 1000; i++ {
		a := ip.Addr(rng.Uint32())
		res, err := rt.Dispatch(a)
		if err != nil {
			t.Fatalf("Dispatch(%s): %v", a, err)
		}
		if res.Worker == 2 {
			t.Fatalf("Dispatch(%s) served by panicked worker", a)
		}
		want, _ := fib.Lookup(a, nil)
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
			t.Fatalf("Dispatch(%s) = %+v want %d", a, res, want)
		}
	}

	// ...and is recoverable without respawning anything.
	if err := rt.RecoverWorker(2); err != nil {
		t.Fatalf("RecoverWorker(2): %v", err)
	}
	snap := rt.Snapshot()
	var back ip.Addr
	found := false
	for i := 0; i < 1<<16 && !found; i++ {
		a := ip.Addr(rng.Uint32())
		if snap.Home(a) == 2 {
			back, found = a, true
		}
	}
	if !found {
		t.Fatal("no address homes to recovered worker")
	}
	res, err := rt.Dispatch(back)
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != 2 {
		t.Fatalf("recovered worker not serving: %+v", res)
	}
}

func TestPanicOnBatchStillAnswers(t *testing.T) {
	fib, routes := testRoutes(t, 3000, 44)
	rt, err := New(routes, Config{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Queue a poison directly behind a batch request so the worker is
	// mid-backlog when it panics; the batch queued after the poison must
	// still be answered (by the panic fallback or the drained backlog).
	if err := rt.PoisonWorker(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	addrs := make([]ip.Addr, 256)
	for i := range addrs {
		addrs[i] = ip.Addr(rng.Uint32())
	}
	out, err := rt.DispatchBatch(addrs, nil)
	if err != nil {
		t.Fatalf("DispatchBatch: %v", err)
	}
	for i, res := range out {
		want, _ := fib.Lookup(addrs[i], nil)
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
			t.Fatalf("batch[%d] %s = %+v want %d", i, addrs[i], res, want)
		}
	}
	waitState(t, rt, 0, WorkerFailed)
}

func TestDispatchEnqueueTimeout(t *testing.T) {
	fib, routes := testRoutes(t, 2000, 45)
	rt, err := New(routes, Config{Workers: 2, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Wedge both workers: park each goroutine and fill each queue, so
	// every enqueue attempt finds every queue full.
	rel0 := wedgeWorker(t, rt, 0)
	defer rel0()
	rel1 := wedgeWorker(t, rt, 1)
	defer rel1()

	if _, err := rt.Dispatch(ip.MustParseAddr("10.0.0.1")); !errors.Is(err, ErrEnqueueTimeout) {
		t.Fatalf("Dispatch on wedged runtime = %v, want ErrEnqueueTimeout", err)
	}
	if _, err := rt.DispatchBatch([]ip.Addr{ip.MustParseAddr("10.0.0.2")}, nil); !errors.Is(err, ErrEnqueueTimeout) {
		t.Fatalf("DispatchBatch on wedged runtime = %v, want ErrEnqueueTimeout", err)
	}
	st := rt.Stats()
	if st.EnqueueTimeouts < 2 || st.EnqueueRetries < 1 {
		t.Fatalf("timeout accounting: timeouts=%d retries=%d", st.EnqueueTimeouts, st.EnqueueRetries)
	}
	// The snapshot path is unaffected by wedged workers.
	if _, _, ok := rt.Lookup(routes[0].Prefix.First()); !ok {
		t.Fatal("snapshot lookup failed under wedged workers")
	}

	// After release, the pooled done channels must be clean: a channel
	// returned with a pending send would deliver a stale Result to an
	// unrelated future dispatch.
	rel0()
	rel1()
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 200; i++ {
		a := ip.Addr(rng.Uint32())
		res, err := rt.Dispatch(a)
		if err != nil {
			t.Fatalf("Dispatch after release: %v", err)
		}
		want, _ := fib.Lookup(a, nil)
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
			t.Fatalf("Dispatch(%s) = %+v want %d", a, res, want)
		}
	}
	addrs := make([]ip.Addr, 300)
	for i := range addrs {
		addrs[i] = ip.Addr(rng.Uint32())
	}
	out, err := rt.DispatchBatch(addrs, nil)
	if err != nil {
		t.Fatalf("DispatchBatch after release: %v", err)
	}
	for i, res := range out {
		want, _ := fib.Lookup(addrs[i], nil)
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
			t.Fatalf("batch[%d] = %+v want %d", i, res, want)
		}
	}
}

func TestDispatchBatchDrainsDonesOnPartialFailure(t *testing.T) {
	fib, routes := testRoutes(t, 2000, 46)
	rt, err := New(routes, Config{Workers: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	snap := rt.Snapshot()
	rng := rand.New(rand.NewSource(46))
	var a0, a1 ip.Addr
	got0, got1 := false, false
	for i := 0; i < 1<<16 && !(got0 && got1); i++ {
		a := ip.Addr(rng.Uint32())
		switch snap.Home(a) {
		case 0:
			a0, got0 = a, true
		case 1:
			a1, got1 = a, true
		}
	}
	if !got0 || !got1 {
		t.Fatal("could not find addresses for both partitions")
	}

	// Wedge worker 0 completely and park worker 1 with one queue slot
	// still free. The batch's worker-0 group diverts into that free slot;
	// the worker-1 group then finds every queue full and times out with
	// the first group still pending — the drain path under test.
	rel0 := wedgeWorker(t, rt, 0)
	defer rel0()
	r1park, err := rt.StallWorker(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r1park()
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.workers[1].queue) > 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("worker 1 never dequeued the parking stall")
		}
		time.Sleep(100 * time.Microsecond)
	}
	r1slot, err := rt.StallWorker(1) // occupies 1 of 2 slots, leaving 1 free
	if err != nil {
		t.Fatal(err)
	}
	defer r1slot()

	errc := make(chan error, 1)
	go func() {
		_, err := rt.DispatchBatch([]ip.Addr{a0, a1}, nil)
		errc <- err
	}()
	// Let the batch's retry budget run out, then un-wedge the workers so
	// the pending group can be drained and the call return.
	for rt.Stats().EnqueueTimeouts == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("DispatchBatch never exhausted its enqueue retries")
		}
		time.Sleep(time.Millisecond)
	}
	rel0()
	r1park()
	r1slot()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrEnqueueTimeout) {
			t.Fatalf("DispatchBatch = %v, want ErrEnqueueTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DispatchBatch did not return after stalls released — done drain hung")
	}

	// Pool hygiene: subsequent dispatches see only their own results.
	for i := 0; i < 200; i++ {
		a := ip.Addr(rng.Uint32())
		res, err := rt.Dispatch(a)
		if err != nil {
			t.Fatalf("Dispatch after drain: %v", err)
		}
		want, _ := fib.Lookup(a, nil)
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
			t.Fatalf("Dispatch(%s) = %+v want %d", a, res, want)
		}
	}
}

func TestAllWorkersDownDispatchFailsLookupSurvives(t *testing.T) {
	_, routes := testRoutes(t, 1000, 47)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// The operator API refuses to fail the last worker, but panics don't
	// ask: poison both.
	if err := rt.PoisonWorker(0); err != nil {
		t.Fatal(err)
	}
	if err := rt.PoisonWorker(1); err != nil {
		t.Fatal(err)
	}
	waitState(t, rt, 0, WorkerFailed)
	waitState(t, rt, 1, WorkerFailed)

	if _, err := rt.Dispatch(ip.MustParseAddr("10.0.0.1")); !errors.Is(err, ErrNoHealthyWorkers) {
		t.Fatalf("Dispatch with all workers down = %v, want ErrNoHealthyWorkers", err)
	}
	// The RCU snapshot path never depends on workers.
	if _, _, ok := rt.Lookup(routes[0].Prefix.First()); !ok {
		t.Fatal("snapshot lookup failed with all workers down")
	}
	// Updates keep flowing too: the writer is independent of workers.
	if _, err := rt.Announce(ip.MustParsePrefix("203.0.113.0/24"), 7); err != nil {
		t.Fatalf("Announce with all workers down: %v", err)
	}

	if err := rt.RecoverWorker(0); err != nil {
		t.Fatal(err)
	}
	if res, err := rt.Dispatch(ip.MustParseAddr("203.0.113.9")); err != nil || !res.Found || res.Hop != 7 {
		t.Fatalf("Dispatch after recovery = %+v, %v", res, err)
	}
}

func TestSnapshotShellDownMask(t *testing.T) {
	_, routes := testRoutes(t, 2000, 48)

	t.Run("rehome shares index", func(t *testing.T) {
		prev := newSnapshot(1, routes, 4)
		next := prev.clonePatched(2, 4, []bool{false, true, false, false}, nil)
		if next.Home(routes[len(routes)/3].Prefix.First()) == 1 {
			t.Fatal("re-homed snapshot still homes routes to the down worker")
		}
		if &next.index.l1[0] != &prev.index.l1[0] {
			t.Fatal("control publication copied the stride index instead of sharing it")
		}
	})

	t.Run("worker zero down", func(t *testing.T) {
		s := snapshotShell(1, routes, 4, []bool{true, false, false, false}, nil)
		counts := make([]int, 4)
		for _, r := range routes {
			counts[s.Home(r.Prefix.First())]++
		}
		if counts[0] != 0 {
			t.Fatalf("down worker 0 still homes %d routes", counts[0])
		}
		for w := 1; w < 4; w++ {
			if counts[w] == 0 {
				t.Fatalf("survivor %d homes nothing: %v", w, counts)
			}
		}
	})

	t.Run("middle worker down keeps order", func(t *testing.T) {
		s := snapshotShell(1, routes, 4, []bool{false, false, true, false}, nil)
		for i := 1; i < len(s.starts); i++ {
			if s.starts[i] < s.starts[i-1] {
				t.Fatalf("starts not monotone at %d: %v", i, s.starts)
			}
		}
		for a := 0; a < 1000; a++ {
			if h := s.Home(ip.Addr(a * 4_000_000)); h == 2 {
				t.Fatal("Home returned the down worker")
			}
		}
	})

	t.Run("all down keeps Home total", func(t *testing.T) {
		s := snapshotShell(1, routes, 3, []bool{true, true, true}, nil)
		for a := 0; a < 1000; a++ {
			if h := s.Home(ip.Addr(a * 4_000_000)); h != 0 {
				t.Fatalf("Home = %d with all workers down, want nominal 0", h)
			}
		}
	})

	t.Run("down with tiny table", func(t *testing.T) {
		tiny := routes[:2]
		s := snapshotShell(1, tiny, 4, []bool{false, true, false, false}, nil)
		counts := make([]int, 4)
		for _, r := range tiny {
			counts[s.Home(r.Prefix.First())]++
		}
		if counts[1] != 0 || counts[0]+counts[2]+counts[3] != 2 {
			t.Fatalf("tiny-table down split wrong: %v", counts)
		}
	})
}
