package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"clue/internal/core"
	"clue/internal/feed"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

// The traced pass has two parts.
//
// First the workload's own load runs again for half a window, cut into
// six slices with reader-call spans recorded in the odd ones: the ratio of
// traced to untraced throughput is the tracing overhead, and the update
// sender's lateness and the readers' verified share are read off the same
// run.
//
// Then the layer suite times every layer from outside, at this workload's
// table size and address mix: one sampled input is replayed at each
// boundary of the read stack in turn (HTTP round trip, ip parse, dispatch,
// runtime lookup, snapshot lookup, ip format), one update stream at each
// boundary of the write stack (onrtc updater, core system, serve writer,
// collector→follower), and every call is a span. The read probes reuse
// the workload's own child and runtime where it has them (read-only); the
// write probes always build their own instances, because they change the
// table.

// layerSet collects per-layer metric values by name.
type layerSet map[string]metricValue

func (ls layerSet) set(name string, v float64, n int, note string) {
	for _, m := range perLayer {
		if m.Name == name {
			ls[name] = metricValue{Name: name, Value: v, Unit: m.Unit, N: n, Note: note}
			return
		}
	}
	panic("undeclared per-layer metric " + name)
}

// ordered returns the collected metrics in spec order; a metric the pass
// failed to produce is reported as missing.
func (ls layerSet) ordered() ([]metricValue, error) {
	out := make([]metricValue, 0, len(perLayer))
	for _, m := range perLayer {
		v, ok := ls[m.Name]
		if !ok {
			return out, fmt.Errorf("traced pass produced no %s", m.Name)
		}
		out = append(out, v)
	}
	return out, nil
}

var sink uint64 // keeps timing loops from being optimised away

// timeLoop runs chunk (which performs and returns some number of
// operations) until atLeast has elapsed and returns the median ns per
// operation across chunks.
func timeLoop(atLeast time.Duration, chunk func() int) (nsPerOp float64, chunks int) {
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < atLeast; {
		t := time.Now()
		n := chunk()
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(per), len(per)
}

func tracePass(ctx context.Context, w *workloadSpec, st *started, cfg *runConfig, res *workloadResult) {
	tr := newTracer()
	ls := layerSet{}
	defer func() {
		path := filepath.Join(cfg.outDir, "trace-"+w.Name+".json")
		if err := tr.write(path); err != nil {
			res.fail(err)
		} else {
			res.TraceFile = path
		}
	}()

	// Part one: the workload's load, tracing on in the odd slices.
	spec := newLoadSpec(w, st.spec.in, st.topo, cfg.callers)
	spec.tr = tr
	warm := cfg.sc.warm
	if cfg.measured {
		warm = cfg.sc.warm / 4 // the measured window has just run; the system is warm
	}
	const traceSlices = 6
	sliceLen := cfg.sliceLen * time.Duration(cfg.sc.slices) / (2 * traceSlices)
	lr := runLoad(ctx, spec, warm, sliceLen, traceSlices)
	tally(res, lr)
	if !res.Correct {
		return
	}
	var off, on float64 // the readers have an even number of slices either way
	for k, a := range lr.addrs[:lr.nRead] {
		if k%2 == 1 {
			on += a
		} else {
			off += a
		}
	}
	if off > 0 {
		ls.set("trace.overhead_ratio", on/off, int(on+off), "traced ÷ untraced reader throughput, alternating slices of one run")
	}
	ls.set("loadgen.late_p99_ms", quantile(lr.lateNs, 0.99)/1e6, len(lr.lateNs), tailNote(len(lr.lateNs), 0.99))
	if lr.reads.answers > 0 {
		ls.set("loadgen.verified_ratio", float64(lr.reads.verified)/float64(lr.reads.answers), int(lr.reads.answers),
			fmt.Sprintf("%d answers excused by churn; %d of %d update batches confirmed by a probe lookup", lr.reads.excused, lr.probed, lr.batches))
	}

	// Part two: the layer suite.
	s := &suite{ctx: ctx, cfg: cfg, in: st.spec.in, topo: st.topo, tr: tr, sb: tr.buf(), ls: ls, res: res}
	if err := s.run(); err != nil {
		res.fail(err)
		return
	}
	if res.Attempted > 0 {
		ls.set("loadgen.failed_ops_ratio", float64(res.Failed)/float64(res.Attempted), int(res.Attempted), "")
	}
	out, err := ls.ordered()
	if err != nil {
		res.fail(err)
	}
	res.PerLayer = out
}

// suite is one run of the layer probes.
type suite struct {
	ctx  context.Context
	cfg  *runConfig
	in   *inputs
	topo topology // the workload's topology, still up
	tr   *tracer
	sb   *spanBuf
	ls   layerSet
	res  *workloadResult

	routes []ip.Route // the table as it stands now (base FIB plus the stream so far)
	hot    []ip.Addr  // Zipf(1.2) over prefixes
	cold   []ip.Addr  // uniform over routes
}

func (s *suite) run() error {
	s.routes = s.in.oracle.ref.Routes()
	var err error
	if s.hot, err = zipfPool(s.routes, s.cfg.seed, s.cfg.sc.zipfPool); err != nil {
		return err
	}
	s.cold = coldPool(s.routes, s.cfg.seed, min(s.cfg.sc.coldPool, 1<<20))

	if err := s.readStack(); err != nil {
		return fmt.Errorf("read stack: %w", err)
	}
	if s.ctx.Err() != nil {
		return s.ctx.Err()
	}
	if err := s.writeStack(); err != nil {
		return fmt.Errorf("write stack: %w", err)
	}
	return s.ctx.Err()
}

// --- read stack ---------------------------------------------------------

func (s *suite) readStack() error {
	// The HTTP end: the workload's own child if it has one, else a child
	// started on the current table.
	ht, _ := s.topo.(*httpTopo)
	if ht == nil {
		fibPath, err := writeFIB(s.cfg.outDir, s.routes)
		if err != nil {
			return err
		}
		if ht, err = startHTTPFromFile(s.ctx, s.cfg.serveBin, fibPath, s.cfg.callers); err != nil {
			return err
		}
		s.res.notePid(ht)
		defer func() {
			if err := ht.close(); err != nil {
				s.res.fail(err)
			}
		}()
	}
	// The in-process twin: the workload's own runtime if it has one, else
	// one built from the same table.
	rt := runtimeOf(s.topo)
	if rt == nil {
		var err error
		if rt, err = serve.New(s.routes, serve.Config{}); err != nil {
			return err
		}
		defer rt.Close()
	}

	if err := s.replayReads(ht.hc, rt); err != nil {
		return err
	}
	if err := s.httpProbes(ht); err != nil {
		return err
	}
	s.dispatchProbes(rt)
	s.snapshotProbes(rt)

	// Stats the workload's serving runtime exports, read after its load
	// and these probes.
	sst, err := s.topo.stats()
	if err != nil {
		return err
	}
	s.ls.set("serve.dispatch.divert_ratio", sst.DivertRate(), int(sst.Dispatched), "")
	s.ls.set("serve.dispatch.cache_hit_ratio", sst.CacheHitRate(), int(sst.CacheHits+sst.CacheMisses), "")
	s.ls.set("serve.dispatch.overflow_blocked", float64(sst.OverflowBlocked), int(sst.Dispatched), "")
	s.ls.set("serve.dispatch.enqueue_retries", float64(sst.EnqueueRetries), int(sst.Dispatched), "")
	s.ls.set("serve.dispatch.queue_depth_p99", sst.Latency.QueueDepth.P99, int(sst.Latency.QueueDepth.Count), "")
	s.ls.set("serve.dispatch.home_p99_ns", sst.Latency.DispatchHome.P99, int(sst.Latency.DispatchHome.Count), "")
	s.ls.set("serve.snapshot.index_bytes", float64(sst.IndexBytes), 1, "")
	s.ls.set("serve.snapshot.heap_bytes", float64(sst.SnapshotHeapBytes), 1, "")
	s.ls.set("serve.snapshot.sub_arrays", float64(sst.IndexSubArrays), 1, "")
	if sst.Routes > 0 {
		s.ls.set("serve.snapshot.bytes_per_route", float64(sst.SnapshotHeapBytes)/float64(sst.Routes), sst.Routes, "")
	}
	pubs := float64(sst.Batches - sst.NoopBatches)
	s.ls.set("serve.writer.mean_batch_ops", sst.MeanBatch(), int(sst.Batches), "")
	s.ls.set("serve.writer.noop_batches", float64(sst.NoopBatches), int(sst.Batches), "")
	s.ls.set("serve.writer.index_rebuilds", float64(sst.IndexRebuilds), int(pubs), "")
	s.ls.set("serve.writer.ttf_model_mean", sst.MeanTTF().Total(), int(sst.Announces+sst.Withdraws), "simulated TCAM time from the cost model, not wall time")
	s.ls.set("serve.writer.peak_pending", float64(sst.PeakPendingUpdates), int(sst.Batches), "")
	if pubs > 0 {
		s.ls.set("serve.writer.in_place_patch_ratio", float64(sst.InPlacePatches)/pubs, int(pubs), "")
		s.ls.set("serve.writer.swap_us_mean", sst.SwapNs/pubs/1e3, int(pubs), "")
		s.ls.set("serve.writer.arenas_recycled_ratio", float64(sst.ArenasRecycled)/pubs, int(pubs), "")
	}
	return nil
}

const replayBatch = 256 // the HTTP workload's request size

// replayReads sends sampled 256-address inputs through the read stack,
// once at each boundary, every call a span. The outermost span is the
// client's round trip; the inner ones run on the in-process twin, since
// spans inside the child are a later issue.
func (s *suite) replayReads(hc *httpClient, rt *serve.Runtime) error {
	snap := rt.Snapshot()
	var buf bytes.Buffer
	hops := make([]ip.NextHop, 0, replayBatch)
	strs := make([]string, replayBatch)
	addrs := make([]ip.Addr, replayBatch)
	var dout []serve.Result
	var lout []serve.LookupResult
	stride := max(1, len(s.in.pool)/replayBatch/s.cfg.sc.replays)
	for i := 0; i < s.cfg.sc.replays && s.ctx.Err() == nil; i++ {
		off := (i * stride * replayBatch) % (len(s.in.pool) - replayBatch + 1)
		input := s.in.pool[off : off+replayBatch]
		for j, a := range input {
			strs[j] = a.String()
		}
		body := batchBody(input)
		id := s.tr.newID()
		s.res.Attempted++

		t0 := time.Now()
		_, err := hc.lookupBatch(body, replayBatch, false, &buf, hops)
		t1 := time.Now()
		if err != nil {
			return err
		}
		root := s.sb.add(id, 0, "http.roundtrip", t0, t1)

		t0 = time.Now()
		for j, str := range strs {
			a, err := ip.ParseAddr(str)
			if err != nil {
				return err
			}
			addrs[j] = a
		}
		t1 = time.Now()
		s.sb.add(id, root, "ip.parse", t0, t1)

		t0 = time.Now()
		dout, err = rt.DispatchBatch(addrs, dout)
		t1 = time.Now()
		if err != nil {
			return err
		}
		disp := s.sb.add(id, root, "serve.dispatch_batch", t0, t1)

		t0 = time.Now()
		lout, _ = rt.LookupBatch(addrs, lout)
		t1 = time.Now()
		look := s.sb.add(id, disp, "serve.lookup_batch", t0, t1)

		t0 = time.Now()
		for _, a := range addrs {
			hop, _, _ := snap.Lookup(a)
			sink += uint64(hop)
		}
		t1 = time.Now()
		s.sb.add(id, look, "snapshot.lookup", t0, t1)

		t0 = time.Now()
		for j := range dout {
			sink += uint64(len(addrs[j].String()) + len(dout[j].Prefix.String()))
		}
		t1 = time.Now()
		s.sb.add(id, root, "ip.format", t0, t1)

		// Untimed: the same input once more, decoded, and every layer's
		// answer against the oracle.
		got, err := hc.lookupBatch(body, replayBatch, true, &buf, hops)
		if err != nil {
			return err
		}
		for j, a := range input {
			want, _ := s.in.oracle.ref.Lookup(a, nil)
			sh, _, _ := snap.Lookup(a)
			if got[j] != want || dout[j].Hop != want || lout[j].Hop != want || sh != want {
				return fmt.Errorf("%s: http %d, dispatch %d, lookup %d, snapshot %d, oracle %d", a, got[j], dout[j].Hop, lout[j].Hop, sh, want)
			}
		}
	}
	spans, _ := s.tr.all()
	self, dur := selfTimes(spans), durations(spans)
	n := len(dur["http.roundtrip"])
	s.ls.set("cmd.clue-serve.self_us_per_batch", median(self["http.roundtrip"])/1e3, n,
		fmt.Sprintf("round trip %.1f us = HTTP/JSON self + ip %.1f + dispatch self %.1f + lookup %.1f (medians)",
			median(dur["http.roundtrip"])/1e3, (median(dur["ip.parse"])+median(dur["ip.format"]))/1e3,
			median(self["serve.dispatch_batch"])/1e3, median(dur["serve.lookup_batch"])/1e3))
	s.ls.set("ip.parse_ns_per_addr", median(dur["ip.parse"])/replayBatch, n, "")
	s.ls.set("ip.format_ns_per_addr", median(dur["ip.format"])/replayBatch, n, "address and prefix, as the batch reply formats them")
	return nil
}

// httpProbes measures the smallest request and, with a short closed-loop
// burst over C connections, the child's CPU and the bytes on the wire per
// lookup.
func (s *suite) httpProbes(ht *httpTopo) error {
	var buf bytes.Buffer
	var gets []float64
	for i := 0; i < s.cfg.sc.replays && s.ctx.Err() == nil; i++ {
		a := s.hot[i%len(s.hot)]
		t0 := time.Now()
		hop, err := ht.hc.lookupOne(a, false, &buf)
		t1 := time.Now()
		if err != nil {
			return err
		}
		s.res.Attempted++
		if want, _ := s.in.oracle.ref.Lookup(a, nil); hop != want {
			return fmt.Errorf("GET /lookup %s: hop %d, oracle says %d", a, hop, want)
		}
		s.sb.add(s.tr.newID(), 0, "http.single_get", t0, t1)
		gets = append(gets, float64(t1.Sub(t0)))
	}
	s.ls.set("cmd.clue-serve.single_get_us", median(gets)/1e3, len(gets), "")

	nb := min(len(s.hot)/replayBatch, 64)
	bodies := make([][]byte, nb)
	for b := range bodies {
		bodies[b] = batchBody(s.hot[b*replayBatch : (b+1)*replayBatch])
	}
	burst := 5 * s.cfg.sc.probeMin
	cpu0, err := procCPUSeconds(ht.child.pid)
	if err != nil {
		return err
	}
	out0, in0 := ht.hc.bytesOut.Load(), ht.hc.bytesIn.Load()
	var wg sync.WaitGroup
	calls := make([]int, s.cfg.callers)
	errs := make([]error, s.cfg.callers)
	end := time.Now().Add(burst)
	for c := 0; c < s.cfg.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; time.Now().Before(end) && s.ctx.Err() == nil; i++ {
				if _, err := ht.hc.lookupBatch(bodies[i%nb], replayBatch, false, &buf, nil); err != nil {
					errs[c] = err
					return
				}
				calls[c]++
			}
		}()
	}
	wg.Wait()
	total := 0
	for c := range calls {
		if errs[c] != nil {
			return errs[c]
		}
		total += calls[c]
	}
	cpu1, err := procCPUSeconds(ht.child.pid)
	if err != nil {
		return err
	}
	s.res.Attempted += int64(total)
	lookups := float64(total * replayBatch)
	wire := float64(ht.hc.bytesOut.Load() - out0 + ht.hc.bytesIn.Load() - in0)
	s.ls.set("cmd.clue-serve.bytes_per_lookup", wire/lookups, total, "request plus reply, headers included, counted at the client's sockets")
	s.ls.set("cmd.clue-serve.child_cpu_s_per_mlookup", (cpu1-cpu0)/(lookups/1e6), total, "")
	return nil
}

// cursor hands out consecutive windows of an address pool, wrapping at
// the end.
type cursor struct {
	pool []ip.Addr
	pos  int
}

func (c *cursor) next(n int) []ip.Addr {
	if c.pos+n > len(c.pool) {
		c.pos = 0
	}
	c.pos += n
	return c.pool[c.pos-n : c.pos]
}

// dispatchProbes times the dispatch path from one caller, against the
// plain runtime lookups it wraps.
func (s *suite) dispatchProbes(rt *serve.Runtime) {
	atLeast := s.cfg.sc.probeMin
	hot, cold := cursor{pool: s.hot}, cursor{pool: s.cold}
	next := hot.next
	single, n1 := timeLoop(atLeast, func() int {
		for _, a := range next(1024) {
			r, _ := rt.Dispatch(a)
			sink += uint64(r.Hop)
		}
		return 1024
	})
	lookup, _ := timeLoop(atLeast, func() int {
		for _, a := range next(4096) {
			hop, _, _ := rt.Lookup(a)
			sink += uint64(hop)
		}
		return 4096
	})
	var dout []serve.Result
	var lout []serve.LookupResult
	b256, n256 := timeLoop(atLeast, func() int {
		dout, _ = rt.DispatchBatch(next(256), dout)
		return 256
	})
	l256, _ := timeLoop(atLeast, func() int {
		lout, _ = rt.LookupBatch(next(256), lout)
		return 256
	})
	b8192, n8192 := timeLoop(atLeast, func() int {
		dout, _ = rt.DispatchBatch(cold.next(8192), dout)
		return 8192
	})
	s.ls.set("serve.dispatch.ns_per_lookup_single", single, n1*1024, "")
	s.ls.set("serve.dispatch.ns_per_lookup_batch256", b256, n256*256, "")
	s.ls.set("serve.dispatch.ns_per_lookup_batch8192", b8192, n8192*8192, "cold addresses")
	s.ls.set("serve.dispatch.self_ns_single", single-lookup, n1*1024, fmt.Sprintf("Dispatch %.0f ns minus Runtime.Lookup %.1f ns", single, lookup))
	s.ls.set("serve.dispatch.over_lookup_ratio_single", single/lookup, n1*1024, "Dispatch ÷ Runtime.Lookup")
	s.ls.set("serve.dispatch.over_lookup_ratio_batch", b256/l256, n256*256, "DispatchBatch ÷ LookupBatch, 256 addresses")

	const allocCalls = 20000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, a := range next(min(allocCalls, len(s.hot))) {
		r, _ := rt.Dispatch(a)
		sink += uint64(r.Hop)
	}
	runtime.ReadMemStats(&m1)
	s.ls.set("serve.dispatch.allocs_per_lookup", float64(m1.Mallocs-m0.Mallocs)/float64(min(allocCalls, len(s.hot))), allocCalls, "process-wide mallocs over a single-caller Dispatch loop")
}

// snapshotProbes times the snapshot's own lookup routines.
func (s *suite) snapshotProbes(rt *serve.Runtime) {
	atLeast := s.cfg.sc.probeMin
	snap := rt.Snapshot()
	loop := func(pool []ip.Addr, fn func(ip.Addr) ip.NextHop) (float64, int) {
		ns, chunks := timeLoop(atLeast, func() int {
			for _, a := range pool {
				sink += uint64(fn(a))
			}
			return len(pool)
		})
		return ns, chunks * len(pool)
	}
	hot, nh := loop(s.hot, func(a ip.Addr) ip.NextHop { h, _, _ := snap.Lookup(a); return h })
	cold, nc := loop(s.cold, func(a ip.Addr) ip.NextHop { h, _, _ := snap.Lookup(a); return h })
	bin, nb := loop(s.hot, func(a ip.Addr) ip.NextHop { h, _, _ := snap.LookupBinary(a); return h })
	s.ls.set("serve.snapshot.lookup_ns_hot", hot, nh, "Zipf(1.2) addresses")
	s.ls.set("serve.snapshot.lookup_ns_cold", cold, nc, "addresses uniform over routes")
	s.ls.set("serve.snapshot.lookup_binary_ns", bin, nb, "")

	var out []serve.LookupResult
	batch := func(pool []ip.Addr, size int) (float64, int) {
		c := cursor{pool: pool}
		ns, chunks := timeLoop(atLeast, func() int {
			out = snap.LookupBatch(c.next(size), out)
			return size
		})
		return ns, chunks * size
	}
	b256, n256 := batch(s.hot, 256)
	b8192, n8192 := batch(s.cold, min(8192, len(s.cold)))
	s.ls.set("serve.snapshot.lookup_batch_ns_per_addr_256", b256, n256, "Zipf(1.2) addresses")
	s.ls.set("serve.snapshot.lookup_batch_ns_per_addr_8192", b8192, n8192, "cold addresses, the radix-sorted path")
}

// --- write stack --------------------------------------------------------

// writeStack replays one update stream at every boundary of the write
// path, each on its own instance built from the same table: the bare
// ONRTC updater, the core system around it (the simulated line card), the
// serve runtime's writer around that, and the collector→follower feed
// around that. Batches of feedBatch records are the unit, so the spans of
// one batch line up across levels.
func (s *suite) writeStack() error {
	nOps := s.cfg.sc.writeOps
	nBatches := nOps / feedBatch
	gen, err := tracegen.NewUpdateGen(trie.FromRoutes(s.routes), tracegen.UpdateConfig{
		Seed: s.cfg.seed + 7919, WithdrawFrac: withdrawFrac, NewPrefixFrac: newPrefixFrac, Messages: nOps,
	})
	if err != nil {
		return err
	}
	recs := tracegen.Records(gen.NextN(nOps))
	ids := make([]uint64, nBatches)
	for b := range ids {
		ids[b] = s.tr.newID()
	}

	// perOp runs apply over the stream, timing each record and each batch.
	perOp := func(apply func(ribio.UpdateRecord) error, every func(i int)) (opNs []float64, starts, ends []time.Time, err error) {
		opNs = make([]float64, 0, nOps)
		for b := 0; b < nBatches; b++ {
			t0 := time.Now()
			for i := b * feedBatch; i < (b+1)*feedBatch; i++ {
				t := time.Now()
				if err := apply(recs[i]); err != nil {
					return nil, nil, nil, err
				}
				opNs = append(opNs, float64(time.Since(t)))
				if every != nil {
					every(i)
				}
			}
			starts, ends = append(starts, t0), append(ends, time.Now())
		}
		return opNs, starts, ends, nil
	}

	// The feed level goes first so that its span numbers exist for the
	// inner levels to name as parents.
	feedSpans, visNs, err := s.feedProbes(recs, nBatches, ids)
	if err != nil {
		return err
	}

	// serve.Runtime's writer.
	wrt, err := serve.New(s.routes, serve.Config{})
	if err != nil {
		return err
	}
	var lagMax uint64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	serveNs, st, en, err := perOp(func(r ribio.UpdateRecord) error {
		return applyToRuntime(wrt, []ribio.UpdateRecord{r})
	}, func(i int) {
		if i%16 == 0 {
			lagMax = max(lagMax, wrt.Stats().EpochLag)
		}
	})
	serial := time.Since(t0)
	runtime.ReadMemStats(&m1)
	wantHash := wrt.TableHash()
	wrt.Close()
	if err != nil {
		return err
	}
	writerSpans := make([]uint64, nBatches)
	for b := range writerSpans {
		writerSpans[b] = s.sb.add(ids[b], feedSpans[b], "serve.writer", st[b], en[b])
	}

	// core.System: the simulated line card the writer drives.
	sys, err := core.New(s.routes, core.Config{})
	if err != nil {
		return err
	}
	coreNs, st, en, err := perOp(func(r ribio.UpdateRecord) error {
		var err error
		if r.Withdraw {
			_, _, err = sys.WithdrawDiff(r.Prefix)
		} else {
			_, _, err = sys.AnnounceDiff(r.Prefix, r.NextHop)
		}
		return err
	}, nil)
	if err != nil {
		return err
	}
	coreSpans := make([]uint64, nBatches)
	for b := range coreSpans {
		coreSpans[b] = s.sb.add(ids[b], writerSpans[b], "core.system", st[b], en[b])
	}

	// onrtc.Updater alone.
	upd := onrtc.BuildUpdater(trie.FromRoutes(s.routes))
	onrtcNs, st, en, _ := perOp(func(r ribio.UpdateRecord) error {
		if r.Withdraw {
			upd.Withdraw(r.Prefix)
		} else {
			upd.Announce(r.Prefix, r.NextHop)
		}
		return nil
	}, nil)
	for b := 0; b < nBatches; b++ {
		s.sb.add(ids[b], coreSpans[b], "onrtc.updater", st[b], en[b])
	}
	// Every level replayed the same stream from the same table, so they
	// must agree on where it ends.
	if got := feed.CanonicalHash(upd.Table().Routes()); got != wantHash {
		return fmt.Errorf("write stack: onrtc updater ends at table hash %016x, serve writer at %016x", got, wantHash)
	}
	s.res.Attempted += int64(3 * nOps)

	diff := func(a, b []float64) []float64 {
		d := make([]float64, len(a))
		for i := range a {
			d[i] = a[i] - b[i]
		}
		return d
	}
	s.ls.set("onrtc.updater.apply_us_p50", median(onrtcNs)/1e3, nOps, "")
	s.ls.set("core.system.self_us_p50", median(diff(coreNs, onrtcNs))/1e3, nOps, "core.System update minus the onrtc update inside it: the simulated line card's share")
	s.ls.set("serve.writer.self_us_p50", median(diff(serveNs, coreNs))/1e3, nOps, "Runtime.Announce/Withdraw minus the core.System update inside it: mirror, index patch, publish")
	s.ls.set("serve.writer.announce_us_p99", quantile(serveNs, 0.99)/1e3, nOps, tailNote(nOps, 0.99))
	s.ls.set("serve.writer.updates_per_s_serial", float64(nOps)/serial.Seconds(), nOps, "one caller, one update per publication")
	s.ls.set("serve.writer.bytes_per_update", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(nOps), nOps, "process-wide bytes allocated over the serial replay")
	s.ls.set("serve.writer.allocs_per_update", float64(m1.Mallocs-m0.Mallocs)/float64(nOps), nOps, "")
	if sst, err := s.topo.stats(); err == nil {
		lagMax = max(lagMax, sst.EpochLag)
	}
	s.ls.set("serve.writer.epoch_lag_max", float64(lagMax), nOps/16, "sampled every 16 updates of the serial replay, and once on the workload's runtime")

	// feed's own share of a visible batch: what is left of the visible
	// span once the writer's time for the same records is taken out.
	var feedSelf []float64
	for b := 0; b < nBatches; b++ {
		var writer float64
		for i := b * feedBatch; i < (b+1)*feedBatch; i++ {
			writer += serveNs[i]
		}
		feedSelf = append(feedSelf, max(0, visNs[b]-writer)/feedBatch)
	}
	s.ls.set("feed.self_us_per_update", median(feedSelf)/1e3, nBatches, "visible batch minus the serve writer's time for its records: collector, wire, follower, ack")
	return nil
}

// feedProbes sends the stream through a collector→follower pair one batch
// at a time, waiting for each to be visible on the replica. It returns
// the visible span of each batch and its duration.
func (s *suite) feedProbes(recs []ribio.UpdateRecord, nBatches int, ids []uint64) ([]uint64, []float64, error) {
	t0 := time.Now()
	ft, err := startFeed(s.ctx, s.routes)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err := ft.close(); err != nil {
			s.res.fail(err)
		}
	}()
	if _, err := ft.lookup(s.hot[0]); err != nil {
		return nil, nil, err
	}
	s.ls.set("feed.bootstrap_s", time.Since(t0).Seconds(), 1, "collector built, follower connected, snapshot applied, first lookup answered")

	ref := trie.FromRoutes(s.routes)
	ft.wire.take()
	ft.wire.capture(nBatches + nBatches/8 + 8) // update frames plus the hash frames between them
	spans := make([]uint64, nBatches)
	var applyNs, ackNs, visNs []float64
	var lagMax uint64
	for b := 0; b < nBatches && s.ctx.Err() == nil; b++ {
		batch := recs[b*feedBatch : (b+1)*feedBatch]
		for _, r := range batch {
			if r.Withdraw {
				ref.Delete(r.Prefix, nil)
			} else {
				ref.Insert(r.Prefix, r.NextHop, nil)
			}
		}
		last := batch[len(batch)-1]
		want, _ := ref.Lookup(last.Prefix.First(), nil)

		t0 := time.Now()
		seq, err := ft.coll.Apply(batch)
		t1 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		lagMax = max(lagMax, ft.fl.Stats().Lag)
		if err := ft.await(seq); err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		got, _ := ft.lookup(last.Prefix.First())
		t3 := time.Now()
		if got != want {
			return nil, nil, fmt.Errorf("feed batch %d applied but %s resolves to hop %d, reference says %d", seq, last.Prefix.First(), got, want)
		}
		s.res.Attempted++
		spans[b] = s.sb.add(ids[b], 0, "feed.visible", t0, t3)
		applyNs = append(applyNs, float64(t1.Sub(t0)))
		ackNs = append(ackNs, float64(t2.Sub(t0)))
		visNs = append(visNs, float64(t3.Sub(t0)))
	}
	if err := s.ctx.Err(); err != nil {
		return nil, nil, err
	}
	frames, wireBytes := ft.wire.take()

	s.ls.set("feed.collector.apply_us_p50", median(applyNs)/1e3, nBatches, "Collector.Apply per batch; every 16th also hashes the table under the lock")
	s.ls.set("feed.collector.apply_us_p99", quantile(applyNs, 0.99)/1e3, nBatches, tailNote(nBatches, 0.99))
	s.ls.set("feed.ack_p50_ms", median(ackNs)/1e6, nBatches, "Collector.Apply to Follower.WaitSeq returning")
	s.ls.set("feed.wire.bytes_per_update", float64(wireBytes)/float64(nBatches*feedBatch), nBatches, "collector to follower, hash frames included")

	// The wire codec, replayed over the captured update frames.
	var upd []feed.Frame
	for _, raw := range frames {
		fr, err := feed.ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return nil, nil, fmt.Errorf("captured frame: %w", err)
		}
		if fr.Type == feed.FrameUpdates {
			upd = append(upd, fr)
		}
	}
	if len(upd) == 0 {
		return nil, nil, fmt.Errorf("no update frames captured off the feed connection")
	}
	enc, _ := timeLoop(s.cfg.sc.probeMin, func() int {
		for _, fr := range upd {
			feed.WriteFrame(io.Discard, fr)
		}
		return len(upd) * feedBatch
	})
	var rd bytes.Reader
	dec, _ := timeLoop(s.cfg.sc.probeMin, func() int {
		n := 0
		for _, raw := range frames {
			rd.Reset(raw)
			if fr, err := feed.ReadFrame(&rd); err == nil && fr.Type == feed.FrameUpdates {
				n += feedBatch
			}
		}
		return n
	})
	s.ls.set("feed.wire.encode_ns_per_update", enc, len(upd), "feed.WriteFrame (length, CRC) over captured update frames; the record codec is unexported")
	s.ls.set("feed.wire.decode_ns_per_update", dec, len(upd), "feed.ReadFrame over the same frames")

	// What the collector does under its lock every HashEvery batches:
	// compress its mirror and digest the result.
	var hashNs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sink += feed.CanonicalHash(onrtc.Compress(ref).Routes())
		hashNs = append(hashNs, float64(time.Since(t0)))
	}
	s.ls.set("feed.collector.hash_ms", median(hashNs)/1e6, len(hashNs), "onrtc.Compress of the mirror plus feed.CanonicalHash, as Collector.Apply runs it every 16 batches")

	// Follower and collector counters: the workload's own feed if it has
	// one, else this probe's.
	fl, coll := ft.fl, ft.coll
	if wft, ok := s.topo.(*feedTopo); ok {
		fl, coll = wft.fl, wft.coll
	}
	fs, cs := fl.Stats(), coll.Stats()
	s.ls.set("feed.follower.lag_max_batches", float64(max(lagMax, fs.Lag)), nBatches, "sampled after each probe batch")
	s.ls.set("feed.follower.reconnects", float64(fs.Reconnects), 1, "")
	s.ls.set("feed.follower.snapshot_loads", float64(fs.SnapshotLoads), 1, "")
	s.ls.set("feed.follower.hash_mismatches", float64(fs.HashMismatches), int(fs.HashChecks), "")
	if cs.Records > 0 {
		s.ls.set("feed.delivered_ratio", float64(fs.Records)/float64(cs.Records), int(cs.Records), "records the follower applied ÷ records the collector sent")
	}
	return spans, visNs, nil
}
