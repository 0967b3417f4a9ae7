package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"clue/internal/ip"
	"clue/internal/ribio"
)

// TestDispatchBatchInlineWhenIdle pins the inline rule: with unpaced,
// idle workers every group is served on the calling goroutine, so no
// group passes a queue and no queue-depth sample is taken (one is taken
// per 32 queued groups). With a pace set, every group queues.
func TestDispatchBatchInlineWhenIdle(t *testing.T) {
	fib, routes := testRoutes(t, 3000, 91)
	for _, tc := range []struct {
		name   string
		cfg    Config
		inline bool
	}{
		{"unpaced", Config{Workers: 4}, true},
		{"paced", Config{Workers: 4, ServicePace: 100}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(routes, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rng := rand.New(rand.NewSource(91))
			addrs := make([]ip.Addr, 64)
			var out []Result
			const calls = 64 // 4 groups each: 256 would-be sends, 8 samples
			for c := 0; c < calls; c++ {
				for i := range addrs {
					addrs[i] = ip.Addr(rng.Uint32())
				}
				if out, err = rt.DispatchBatch(addrs, out); err != nil {
					t.Fatal(err)
				}
				for i, res := range out {
					want, _ := fib.Lookup(addrs[i], nil)
					if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
						t.Fatalf("DispatchBatch[%d] %s = %+v, want hop %d", i, addrs[i], res, want)
					}
					if res.Worker != res.Home || res.Diverted {
						t.Fatalf("DispatchBatch[%d] %s = %+v, want served at home", i, addrs[i], res)
					}
				}
			}
			st := rt.Stats()
			var served int64
			for _, n := range st.WorkerServed {
				served += n
			}
			if served != calls*int64(len(addrs)) || st.Dispatched != served || st.Diverted != 0 {
				t.Fatalf("served %d, dispatched %d, diverted %d; want %d, %d, 0",
					served, st.Dispatched, st.Diverted, calls*len(addrs), served)
			}
			queued := st.Latency.QueueDepth.Count
			if tc.inline && queued != 0 {
				t.Fatalf("%d queue-depth samples with idle unpaced workers: groups took the queue", queued)
			}
			if !tc.inline && queued == 0 {
				t.Fatal("no queue-depth samples with a service pace: groups were served inline")
			}
		})
	}
}

// TestDispatchBatchDivertsWhenHomeBusy pins that only an idle, healthy
// home is served inline: a home whose queue is full, or which has failed
// before its range is re-homed, still diverts the group whole.
func TestDispatchBatchDivertsWhenHomeBusy(t *testing.T) {
	fib, routes := testRoutes(t, 3000, 92)
	check := func(t *testing.T, rt *Runtime, addrs []ip.Addr) {
		t.Helper()
		out, err := rt.DispatchBatch(addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range out {
			want, _ := fib.Lookup(addrs[i], nil)
			if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
				t.Fatalf("DispatchBatch[%d] %s = %+v, want hop %d", i, addrs[i], res, want)
			}
			if res.Home != 0 || res.Worker == 0 || !res.Diverted {
				t.Fatalf("DispatchBatch[%d] %s = %+v, want diverted off worker 0", i, addrs[i], res)
			}
		}
		if st := rt.Stats(); st.Diverted != int64(len(addrs)) {
			t.Fatalf("diverted %d, want %d", st.Diverted, len(addrs))
		}
	}

	t.Run("queue full", func(t *testing.T) {
		rt, err := New(routes, Config{QueueDepth: 1, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		addrs := partitionAddrs(t, rt, 0)[:16]
		stall := make(chan struct{})
		defer close(stall)
		rt.workers[0].queue <- lookupReq{stall: stall} // worker 0 now blocked
		rt.workers[0].queue <- lookupReq{stall: stall} // queue now full
		check(t, rt, addrs)
	})

	t.Run("failed", func(t *testing.T) {
		rt, err := New(routes, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		addrs := partitionAddrs(t, rt, 0)[:16]
		// A panic marks the worker failed before the re-homed snapshot
		// publishes; hold that window open by not publishing at all.
		rt.workers[0].state.Store(int32(WorkerFailed))
		check(t, rt, addrs)
	})
}

// TestInlinePanicAnswersFromSnapshot drives the handler an inline group
// runs through — a request without a done channel — into a panic: the
// worker is failed as after a queued panic, and the group is still
// answered from the bare snapshot.
func TestInlinePanicAnswersFromSnapshot(t *testing.T) {
	fib, routes := testRoutes(t, 3000, 94)
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	addrs := partitionAddrs(t, rt, 1)[:40]
	out := make([]Result, len(addrs))
	rt.workers[1].handle(lookupReq{home: 1, batch: addrs, out: out, poison: true})
	if got := rt.WorkerStates()[1]; got != WorkerFailed {
		t.Fatalf("worker 1 is %v after an inline panic, want failed", got)
	}
	if st := rt.Stats(); st.WorkerPanics != 1 {
		t.Fatalf("worker panics = %d, want 1", st.WorkerPanics)
	}
	for i, res := range out {
		want, _ := fib.Lookup(addrs[i], nil)
		if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) || res.Worker != 1 {
			t.Fatalf("answer[%d] %s = %+v, want hop %d from worker 1", i, addrs[i], res, want)
		}
	}
}

// TestInlineDispatchUnderChurn races batch callers serving groups inline
// and single dispatches taking the queue, on the same workers, against
// a writer publishing structural batches that recycle arenas. Under
// -race it proves the inline path shares nothing unsynchronised with the
// worker goroutines or the writer. Afterwards, with rebalancing off,
// each worker's sketch holds exactly one sample per sketchSamplePeriod
// addresses it served: concurrent groups drew disjoint tick ranges.
func TestInlineDispatchUnderChurn(t *testing.T) {
	fib, routes := testRoutes(t, 4000, 95)
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// The churn announces and withdraws fresh /24s inside 198.18.0.0/15;
	// probes outside it keep their FIB answer throughout.
	churnNet := ip.MustParsePrefix("198.18.0.0/15")
	var leak []ip.Prefix
	for i := 0; len(leak) < 64 && i < 512; i++ {
		p := ip.MustPrefix(churnNet.First()+ip.Addr(i<<8), 24)
		if fib.Get(p, nil) == ip.NoRoute {
			leak = append(leak, p)
		}
	}
	rng := rand.New(rand.NewSource(95))
	probes := make([]ip.Addr, 0, 4096)
	want := make([]ip.NextHop, 0, cap(probes))
	for len(probes) < cap(probes) {
		if a := ip.Addr(rng.Uint32()); !churnNet.Contains(a) {
			hop, _ := fib.Lookup(a, nil)
			probes, want = append(probes, a), append(want, hop)
		}
	}
	var (
		stop     atomic.Bool
		failures atomic.Int64
		calls    atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		if failures.Add(1) == 1 {
			t.Errorf(format, args...)
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var out []Result
			for i := g; !stop.Load(); i++ {
				n := 1 + (i*37)%200
				off := (i * 131) % (len(probes) - n)
				var err error
				if out, err = rt.DispatchBatch(probes[off:off+n], out); err != nil {
					fail("DispatchBatch: %v", err)
					return
				}
				for j, res := range out {
					if w := want[off+j]; res.Found != (w != ip.NoRoute) || (res.Found && res.Hop != w) {
						fail("DispatchBatch %s = %+v, want hop %d", probes[off+j], res, w)
						return
					}
				}
				calls.Add(1)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * 977; !stop.Load(); i++ {
				k := i % len(probes)
				res, err := rt.Dispatch(probes[k])
				if err != nil {
					fail("Dispatch: %v", err)
					return
				}
				if w := want[k]; res.Found != (w != ip.NoRoute) || (res.Found && res.Hop != w) {
					fail("Dispatch %s = %+v, want hop %d", probes[k], res, w)
					return
				}
			}
		}(g)
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	recs := make([]ribio.UpdateRecord, 0, 8)
	for r := 0; r < rounds && failures.Load() == 0; r++ {
		for k := 0; k < len(leak); k += 8 {
			recs = recs[:0]
			for _, p := range leak[k:min(k+8, len(leak))] {
				recs = append(recs, ribio.UpdateRecord{Prefix: p, NextHop: ip.NextHop(1 + r%7)})
			}
			if _, err := rt.ApplyBatch(recs); err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				recs[i] = ribio.UpdateRecord{Withdraw: true, Prefix: recs[i].Prefix}
			}
			if _, err := rt.ApplyBatch(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 {
		t.FailNow()
	}
	if calls.Load() == 0 {
		t.Fatal("batch callers completed no calls")
	}
	st := rt.Stats()
	if st.ArenasRecycled == 0 {
		t.Error("structural churn recycled no arenas")
	}
	for i, w := range rt.workers {
		var sum uint64
		for b := range w.sketch {
			sum += w.sketch[b].Load()
		}
		if served := uint64(w.served.Load()); sum != served/sketchSamplePeriod {
			t.Errorf("worker %d: %d sketch samples for %d served addresses, want %d", i, sum, served, served/sketchSamplePeriod)
		}
	}
}
