package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"clue/internal/ip"
	"clue/internal/tracegen"
)

// TestConcurrentReadersDuringUpdateStorm is the concurrency-contract
// regression test for the serve runtime (and, transitively, for wrapping
// onrtc.Updater correctly): at least 4 reader goroutines hammer the
// snapshot and dispatch paths while two writers replay a live
// announce/withdraw storm through the batching writer. Run under
// `go test -race` this proves the RCU read side never races the update
// pipeline; the final consistency check proves readers converge on the
// writer's table.
func TestConcurrentReadersDuringUpdateStorm(t *testing.T) {
	_, routes := testRoutes(t, 5000, 31)
	rt, err := New(routes, Config{Workers: 4, QueueDepth: 64, BatchMax: 16})
	if err != nil {
		t.Fatal(err)
	}

	gen, err := tracegen.NewUpdateGen(tracegenFIB(t, routes), tracegen.UpdateConfig{
		Seed: 31, Messages: 4000, WithdrawFrac: 0.3, NewPrefixFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.NextN(4000)

	var (
		stop     atomic.Bool
		lookups  atomic.Int64
		failures atomic.Int64
		wg       sync.WaitGroup
	)
	probe := func(g int64) ip.Addr {
		r := routes[int(g)%len(routes)]
		return r.Prefix.First()
	}
	// 4 snapshot readers + 2 dispatch readers — all racing the writer.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); !stop.Load(); i++ {
				a := probe(g*7919 + i)
				if _, _, ok := rt.Lookup(a); !ok {
					// A withdraw can legitimately empty this range; only
					// count, never fail here — consistency is checked
					// against the writer's table after the storm.
					_ = ok
				}
				lookups.Add(1)
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); !stop.Load(); i++ {
				if _, err := rt.Dispatch(probe(g*104729 + i)); err != nil {
					failures.Add(1)
					return
				}
				lookups.Add(1)
			}
		}(int64(g))
	}
	// One batch-dispatch reader racing the same storm through the
	// grouped per-worker queue path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]ip.Addr, 64)
		var out []Result
		for i := int64(0); !stop.Load(); i++ {
			for j := range batch {
				batch[j] = probe(i*64 + int64(j))
			}
			var err error
			if out, err = rt.DispatchBatch(batch, out); err != nil {
				failures.Add(1)
				return
			}
			lookups.Add(int64(len(batch)))
		}
	}()
	// Two writers split the storm; the runtime serialises them through
	// the single writer goroutine.
	var uwg sync.WaitGroup
	for w := 0; w < 2; w++ {
		uwg.Add(1)
		go func(part []tracegen.Update) {
			defer uwg.Done()
			for _, u := range part {
				var err error
				switch u.Kind {
				case tracegen.Announce:
					_, err = rt.Announce(u.Prefix, u.Hop)
				case tracegen.Withdraw:
					_, err = rt.Withdraw(u.Prefix)
				}
				if err != nil {
					failures.Add(1)
					return
				}
			}
		}(stream[w*2000 : (w+1)*2000])
	}
	uwg.Wait()
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d reader/writer failures during storm", failures.Load())
	}
	if lookups.Load() == 0 {
		t.Fatal("readers performed no lookups")
	}
	st := rt.Stats()
	if got := st.Announces + st.Withdraws; got != 4000 {
		t.Fatalf("applied %d updates, want 4000", got)
	}
	if st.UpdateErrors != 0 {
		t.Fatalf("update errors: %d", st.UpdateErrors)
	}

	// Quiesce, then cross-check reader state against the writer's table:
	// the published snapshot must be byte-identical to the updater's
	// compressed table, which must still be disjoint and forward exactly
	// as the updater's uncompressed FIB does.
	rt.Close()
	want := rt.upd.Table().Routes()
	got := rt.Snapshot().Routes()
	if len(want) != len(got) {
		t.Fatalf("snapshot %d routes, updater %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("snapshot[%d] = %v, updater has %v", i, got[i], want[i])
		}
	}
	if err := rt.upd.Table().VerifyDisjoint(); err != nil {
		t.Fatalf("compressed table after storm: %v", err)
	}
	for i := 0; i < 512; i++ {
		a := probe(int64(i) * 31)
		wantHop, _ := rt.upd.FIB().Lookup(a, nil)
		hop, _, ok := rt.Lookup(a)
		if !ok {
			hop = ip.NoRoute
		}
		if hop != wantHop {
			t.Fatalf("Lookup(%s) = %d after storm, control-plane FIB says %d", a, hop, wantHop)
		}
	}
}
