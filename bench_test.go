// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (printing the reproduced rows once per run), plus
// micro-benchmarks of the core operations.
//
// Run with:
//
//	go test -bench=. -benchmem
package clue_test

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clue"
	"clue/internal/experiments"
	"clue/internal/feed"
	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
	"clue/internal/update"
)

// benchScale keeps per-iteration work bounded so the full bench suite
// finishes in minutes; raise toward experiments.Full to approach paper
// sizes.
var benchScale = experiments.Scale{
	FIBSize:     10000,
	Packets:     150000,
	Warmup:      40000,
	Updates:     10000,
	Routers:     12,
	RouterScale: 40,
	Seed:        1,
}

// printOnce emits each figure's reproduced rows a single time per run so
// the bench log doubles as the experiment report.
var printGuard sync.Map

func printOnce(key, body string) {
	if _, loaded := printGuard.LoadOrStore(key, true); !loaded {
		fmt.Println(body)
	}
}

func benchFIB(b *testing.B, n int, seed int64) *trie.Trie {
	b.Helper()
	fib, err := fibgen.Generate(fibgen.Config{Seed: seed, Routes: n})
	if err != nil {
		b.Fatal(err)
	}
	return fib
}

// --- Per-figure benchmarks -------------------------------------------

func BenchmarkFig8Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8Compression(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig8", res.Render())
		b.ReportMetric(res.MeanRatio, "ratio")
	}
}

func BenchmarkFig9Partition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9Partition(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig9", res.Render())
	}
}

func BenchmarkFig10to14TTF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTTF(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ttf", res.RenderFig10()+"\n"+res.RenderFig11()+"\n"+
			res.RenderFig12()+"\n"+res.RenderFig13()+"\n"+res.RenderFig14())
		b.ReportMetric(res.CLUEMean.Total(), "clue-ttf-ns")
		b.ReportMetric(res.CLPLMean.Total(), "clpl-ttf-ns")
	}
}

func BenchmarkTable2Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table2Workload(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("table2", res.Render())
		b.ReportMetric(res.PerTCAMPct[0], "tcam1-pct")
	}
}

func BenchmarkFig15LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15LoadBalance(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig15", res.Render())
		b.ReportMetric(res.Speedup, "speedup")
		b.ReportMetric(res.HitRate, "hitrate")
	}
}

func BenchmarkFig16Fig17DRedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DRedSweep(benchScale, []int{128, 512, 1024, 2048})
		if err != nil {
			b.Fatal(err)
		}
		printOnce("sweep", res.RenderFig16()+"\n"+res.RenderFig17())
	}
}

// --- Core-operation micro-benchmarks ---------------------------------

func BenchmarkONRTCCompress(b *testing.B) {
	fib := benchFIB(b, 50000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onrtc.Compress(fib)
	}
	b.ReportMetric(float64(fib.Len()), "routes")
}

func BenchmarkCompressedLookup(b *testing.B) {
	fib := benchFIB(b, 50000, 4)
	table := onrtc.Compress(fib)
	traffic, err := tracegen.NewTraffic(
		tracegen.PrefixesFromRoutes(table.Routes()), tracegen.TrafficConfig{Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	addrs := traffic.NextN(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Lookup(addrs[i&(1<<16-1)], nil)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	fib := benchFIB(b, 50000, 5)
	traffic, err := tracegen.NewTraffic(
		tracegen.PrefixesFromRoutes(fib.Routes()), tracegen.TrafficConfig{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	addrs := traffic.NextN(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fib.Lookup(addrs[i&(1<<16-1)], nil)
	}
}

// benchUpdates pre-generates a long self-consistent stream.
func benchUpdates(b *testing.B, fib *trie.Trie, n int) []tracegen.Update {
	b.Helper()
	gen, err := tracegen.NewUpdateGen(fib.Clone(), tracegen.UpdateConfig{
		Seed: 6, Messages: n, WithdrawFrac: 0.3, NewPrefixFrac: 0.55,
	})
	if err != nil {
		b.Fatal(err)
	}
	return gen.NextN(n)
}

// benchPipeline drives b.N messages through fresh pipelines, rebuilding
// (off the clock) whenever the stream wraps: replaying a stream against
// an already-churned table would not be self-consistent.
func benchPipeline(b *testing.B, mk func() (update.Pipeline, error)) {
	fib := benchFIB(b, 20000, 6)
	stream := benchUpdates(b, fib, 200000)
	pipe, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		if i == len(stream) {
			b.StopTimer()
			if pipe, err = mk(); err != nil {
				b.Fatal(err)
			}
			i = 0
			b.StartTimer()
		}
		if _, err := pipe.Apply(stream[i]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

func BenchmarkUpdatePipelineCLUE(b *testing.B) {
	benchPipeline(b, func() (update.Pipeline, error) {
		return update.NewCLUEPipeline(benchFIB(b, 20000, 6), 4, 1024, update.DefaultCosts())
	})
}

func BenchmarkUpdatePipelineCLPL(b *testing.B) {
	benchPipeline(b, func() (update.Pipeline, error) {
		return update.NewCLPLPipeline(benchFIB(b, 20000, 6), 4, 1024, update.DefaultCosts())
	})
}

func BenchmarkSystemAnnounceWithdraw(b *testing.B) {
	fib := benchFIB(b, 10000, 7)
	sys, err := clue.New(fib.Routes(), clue.Config{})
	if err != nil {
		b.Fatal(err)
	}
	p := ip.MustParsePrefix("203.0.113.0/24")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Announce(p, clue.NextHop(i%14+1)); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Withdraw(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineStep(b *testing.B) {
	fib := benchFIB(b, 10000, 8)
	sys, err := clue.New(fib.Routes(), clue.Config{})
	if err != nil {
		b.Fatal(err)
	}
	traffic, err := tracegen.NewTraffic(
		tracegen.PrefixesFromRoutes(fib.Routes()), tracegen.TrafficConfig{Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	addrs := traffic.NextN(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Engine().Step(addrs[i&(1<<16-1)], true)
	}
}

// --- Concurrent serving benchmarks ------------------------------------

// benchServe stands up a serve.Runtime plus a probe-address pool drawn
// from the compressed table's traffic model.
func benchServe(b *testing.B, routes int, seed int64, cfg serve.Config) (*serve.Runtime, []ip.Addr) {
	b.Helper()
	fib := benchFIB(b, routes, seed)
	rt, err := serve.New(fib.Routes(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	traffic, err := tracegen.NewTraffic(
		tracegen.PrefixesFromRoutes(fib.Routes()), tracegen.TrafficConfig{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return rt, traffic.NextN(1 << 16)
}

// reportP99 surfaces a runtime-histogram p99 as a benchmark metric so
// the committed baseline (BENCH_serve.json) carries tail latency and CI
// can gate on its regressions, not just on mean ns/op.
func reportP99(b *testing.B, name string, s serve.LatencySummary) {
	b.Helper()
	if s.Count > 0 {
		b.ReportMetric(s.P99, name)
	}
}

// BenchmarkServeSnapshotLookupParallel measures aggregate throughput of
// the RCU read side: every goroutine does atomic-load + binary-search
// lookups with no locks anywhere. The lookups/s metric is the aggregate
// across all procs.
func BenchmarkServeSnapshotLookupParallel(b *testing.B) {
	rt, addrs := benchServe(b, 20000, 9, serve.Config{})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rt.Lookup(addrs[i&(1<<16-1)])
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	reportP99(b, "p99-ns", rt.Stats().Latency.SnapshotLookup)
}

// BenchmarkServeDispatchParallel measures the partition-worker path:
// range-index dispatch over bounded queues, including divert handling.
func BenchmarkServeDispatchParallel(b *testing.B) {
	rt, addrs := benchServe(b, 20000, 10, serve.Config{})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := rt.Dispatch(addrs[i&(1<<16-1)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	st := rt.Stats()
	b.ReportMetric(100*st.DivertRate(), "divert-%")
	reportP99(b, "p99-ns", st.Latency.DispatchHome)
	reportP99(b, "divert-p99-ns", st.Latency.DispatchDiverted)
}

// BenchmarkSnapshotLookup pits the stride-indexed fast path against the
// plain full-table binary search on the same large snapshot. The indexed
// sub-benchmark is the acceptance gate for the DIR-24-8-style index: it
// must be at least 3x faster than binary with zero allocations.
func BenchmarkSnapshotLookup(b *testing.B) {
	rt, addrs := benchServe(b, 120000, 13, serve.Config{})
	snap := rt.Snapshot()
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap.Lookup(addrs[i&(1<<16-1)])
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap.LookupBinary(addrs[i&(1<<16-1)])
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	})
}

// BenchmarkSnapshotLookupCold drives the stride index with uniform
// random addresses instead of the skewed traffic model: most probes
// miss, and successive lookups share no index cache lines, so this is
// the memory-bandwidth-bound worst case the DIR-24-8 layout is sized
// for (SnapshotLookup/indexed is the cache-friendly best case). The
// heap-B metric records the snapshot's total slab footprint, so the
// committed baseline also gates the memory cost of index layout
// changes, not just their speed.
func BenchmarkSnapshotLookupCold(b *testing.B) {
	rt, _ := benchServe(b, 120000, 13, serve.Config{})
	snap := rt.Snapshot()
	addrs := make([]ip.Addr, 1<<16)
	rnd := rand.New(rand.NewSource(13))
	for i := range addrs {
		addrs[i] = ip.Addr(rnd.Uint32())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Lookup(addrs[i&(1<<16-1)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	b.ReportMetric(float64(snap.HeapBytes()), "heap-B")
}

// BenchmarkServeLookupBatch measures the amortized snapshot read side:
// one atomic snapshot load serves a whole 256-address batch through the
// stride index, reusing the caller's result slice.
func BenchmarkServeLookupBatch(b *testing.B) {
	rt, addrs := benchServe(b, 120000, 13, serve.Config{})
	const batch = 256
	out := make([]serve.LookupResult, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * batch) & (1<<16 - 1)
		if base+batch > 1<<16 {
			base = 0
		}
		out, _ = rt.LookupBatch(addrs[base:base+batch], out)
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkServeDispatchBatchParallel measures grouped worker dispatch:
// each 256-address window is counting-sorted by home partition and
// enqueued as one chunk per worker, versus 256 individual queue hops.
func BenchmarkServeDispatchBatchParallel(b *testing.B) {
	rt, addrs := benchServe(b, 20000, 10, serve.Config{})
	const batch = 256
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var out []serve.Result
		i := 0
		for pb.Next() {
			base := (i * batch) & (1<<16 - 1)
			if base+batch > 1<<16 {
				base = 0
			}
			var err error
			if out, err = rt.DispatchBatch(addrs[base:base+batch], out); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "lookups/s")
	st := rt.Stats()
	b.ReportMetric(100*st.DivertRate(), "divert-%")
	reportP99(b, "p99-ns", st.Latency.DispatchBatch)
}

// BenchmarkServeLookupUnderUpdateStorm measures snapshot-lookup latency
// (p50/p99) while a writer goroutine replays a tracegen update stream
// through the batching pipeline — the paper's fast-update claim restated
// as a service-level objective: read latency must not degrade while the
// table churns.
func BenchmarkServeLookupUnderUpdateStorm(b *testing.B) {
	rt, addrs := benchServe(b, 20000, 11, serve.Config{})
	fib := benchFIB(b, 20000, 11)
	stream := benchUpdates(b, fib, 100000)

	var (
		stop    atomic.Bool
		stormWG sync.WaitGroup
		applied atomic.Int64
	)
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		for i := 0; !stop.Load(); i++ {
			u := stream[i%len(stream)]
			switch u.Kind {
			case tracegen.Announce:
				rt.Announce(u.Prefix, u.Hop)
			case tracegen.Withdraw:
				rt.Withdraw(u.Prefix)
			}
			applied.Add(1)
		}
	}()

	var (
		mu      sync.Mutex
		samples []float64
	)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]float64, 0, 4096)
		i := 0
		for pb.Next() {
			if i%8 == 0 {
				start := time.Now()
				rt.Lookup(addrs[i&(1<<16-1)])
				local = append(local, float64(time.Since(start).Nanoseconds()))
			} else {
				rt.Lookup(addrs[i&(1<<16-1)])
			}
			i++
		}
		mu.Lock()
		samples = append(samples, local...)
		mu.Unlock()
	})
	b.StopTimer()
	stop.Store(true)
	stormWG.Wait()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	b.ReportMetric(float64(applied.Load())/b.Elapsed().Seconds(), "updates/s")
	if len(samples) > 0 {
		sort.Float64s(samples)
		b.ReportMetric(samples[len(samples)/2], "p50-ns")
		b.ReportMetric(samples[len(samples)*99/100], "p99-ns")
	}
}

// BenchmarkServeRebalanceConvergence measures one full closed-loop
// repartitioning cycle: a fresh runtime observes an inverted-Zipf
// traffic skew through its worker sketches, then forced rebalance
// passes recut until the movement-bounded weighted carve finds no
// further improvement. ns/op is the observe-and-converge cycle;
// recuts-to-stable and the imbalance drop are the controller's figure
// of merit. Wall-clock shaped (sketch fill dominates), so it is not in
// the bench regression gate.
func BenchmarkServeRebalanceConvergence(b *testing.B) {
	fib := benchFIB(b, 20000, 17)
	routes := fib.Routes()
	traffic, err := tracegen.NewTraffic(
		tracegen.PrefixesFromRoutes(routes),
		tracegen.TrafficConfig{Seed: 17, ZipfS: 1.2, Invert: true})
	if err != nil {
		b.Fatal(err)
	}
	addrs := traffic.NextN(1 << 16)

	var recuts, moved int
	var imbBefore, imbAfter float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt, err := serve.New(routes, serve.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, a := range addrs {
			rt.Dispatch(a) //nolint:errcheck // runtime is open for the whole loop
		}
		passes := 0
		for {
			res, rerr := rt.Rebalance(true)
			if rerr != nil {
				b.Fatal(rerr)
			}
			if passes == 0 {
				imbBefore += res.ImbalanceBefore
			}
			if !res.Recut || passes >= 16 {
				imbAfter += res.ImbalanceAfter
				break
			}
			passes++
			moved += res.MovedRoutes
		}
		recuts += passes
		b.StopTimer()
		rt.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(recuts)/float64(b.N), "recuts-to-stable")
	b.ReportMetric(float64(moved)/float64(b.N), "moved-routes")
	b.ReportMetric(imbBefore/float64(b.N), "imbalance-before")
	b.ReportMetric(imbAfter/float64(b.N), "imbalance-after")
}

// BenchmarkFeedThroughput measures end-to-end replication: b.N update
// records stream from a collector through the length-prefixed wire
// protocol into a follower applying them to its own serve runtime over
// localhost TCP. Applies are pipelined up to half the replay window
// (past it the collector would trim the log and force a re-snapshot),
// and every 16th batch is applied synchronously to sample the ack
// round-trip tail.
func BenchmarkFeedThroughput(b *testing.B) {
	fib := benchFIB(b, 20000, 13)
	stream := tracegen.Records(benchUpdates(b, fib, 200000))
	const (
		batch  = 8
		window = 1024
	)
	coll, err := feed.NewCollector(feed.CollectorConfig{
		BaseRoutes: fib.Routes(), Window: window, HashEvery: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { coll.Close() })
	addr, err := coll.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	app := feed.NewRuntimeApplier(serve.Config{})
	fl, err := feed.NewFollower(feed.FollowerConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr.String(), time.Second)
		},
		Applier: app,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fl.Close(); app.Close() })
	for app.Runtime() == nil {
		time.Sleep(time.Millisecond)
	}

	var (
		ackNs []float64
		last  uint64
	)
	b.ResetTimer()
	for sent, nb := 0, 0; sent < b.N; nb++ {
		i := sent % len(stream)
		end := min(min(i+batch, len(stream)), i+b.N-sent)
		seq, err := coll.Apply(stream[i:end])
		if err != nil {
			b.Fatal(err)
		}
		sent += end - i
		last = seq
		if nb%16 == 0 {
			start := time.Now()
			if err := fl.WaitSeq(seq, time.Minute); err != nil {
				b.Fatal(err)
			}
			ackNs = append(ackNs, float64(time.Since(start).Nanoseconds()))
		} else if lag := fl.Stats().Lag; lag > window/2 {
			if err := fl.WaitSeq(seq-window/4, time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := fl.WaitSeq(last, time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
	if len(ackNs) > 0 {
		sort.Float64s(ackNs)
		b.ReportMetric(ackNs[len(ackNs)*99/100], "p99-ack-ns")
	}
	if st := fl.Stats(); st.HashMismatches != 0 || st.SnapshotLoads != 1 {
		b.Fatalf("replication not clean: %+v", st)
	}
}

// --- Ablation & extension benchmarks ----------------------------------

func BenchmarkAblationDRedRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationDRedRule(benchScale, []int{512, 1024})
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ab-dred", res.Render())
	}
}

func BenchmarkAblationLayouts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationLayouts(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ab-layout", res.Render())
	}
}

func BenchmarkAblationPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPower(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ab-power", res.Render())
	}
}

func BenchmarkNSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.NSweep(benchScale, []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ext-nsweep", res.Render())
	}
}

func BenchmarkSLPLShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SLPLShift(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ext-slpl", res.Render())
	}
}

func BenchmarkAblationControlPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationControlPlane(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ab-cp", res.Render())
	}
}

func BenchmarkUpdateInterruption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.UpdateInterruption(benchScale, []int{0, 5, 20})
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ext-interrupt", res.Render())
	}
}
