package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"clue/internal/ip"
)

// loadSpec is one workload's load shape: closed-loop readers and one
// update stream. Every workload has both — the readers are what a
// data-plane client or embedder sees, the stream is the control plane —
// and they differ in transport, call size, address mix, how hard the
// stream is driven and whether it runs beside the readers or after them.
type loadSpec struct {
	in   *inputs
	topo topology

	// readers are the closed-loop callers, one readFn each; one call in
	// timeEvery is timed (every call for batch calls; a single Dispatch is
	// short enough that two clock reads per call would show).
	readers   []readFn
	stats     []*readStats
	timeEvery int

	// The update stream: batchSize records per batch, sent open-loop at
	// batchRate per second, or — batchRate 0 — closed loop with depth
	// batches always in flight. With after, the window's slices are split:
	// the readers have the first ones to themselves, one slice warms the
	// stream up, and the stream is measured alone in the last fifth.
	batchSize int
	batchRate float64
	depth     int
	after     bool

	// tr, when set, records one root span per visible batch and, in the
	// odd slices only, per timed reader call: even and odd slices of one
	// run are the untraced and traced sides of trace.overhead_ratio.
	tr       *tracer
	spanName string
}

// window is the measured stretch of a load run, cut into equal slices.
type window struct {
	start    time.Time
	sliceLen time.Duration
	n        int
}

func (w window) end() time.Time { return w.start.Add(time.Duration(w.n) * w.sliceLen) }

// slice returns the index of the slice t falls in, or -1 outside the
// window (warm-up, or the drain after the end).
func (w window) slice(t time.Time) int {
	if t.Before(w.start) {
		return -1
	}
	k := int(t.Sub(w.start) / w.sliceLen)
	if k >= w.n {
		return -1
	}
	return k
}

// loadResult is the raw record of one load run, per slice. The readers
// were measured in slices [0, nRead) and the stream in [upFrom, w.n): all
// of them for both, unless the stream ran after the readers.
type loadResult struct {
	w       window
	nRead   int
	upFrom  int
	addrs   []float64   // addresses resolved by the readers
	callNs  [][]float64 // timed reader calls
	visRecs []float64   // update records that became visible
	visNs   [][]float64 // per batch: due time → visible on the serving side
	cpu     []float64   // CPU seconds, harness plus child
	lateNs  []float64   // how late each paced send and each slice-boundary sample ran

	reads     readStats
	batches   int64 // update batches sent
	probed    int64 // batches whose visibility was confirmed by a lookup
	failedUps int64 // batches that errored, timed out or never showed
	err       error // first failure of any kind
}

func (r *loadResult) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

type pendingBatch struct {
	token uint64
	pr    probe
	due   time.Time
	recs  int
}

// runLoad drives spec for warm + n*sliceLen and returns what happened in
// the n slices after the warm-up.
func runLoad(ctx context.Context, spec *loadSpec, warm, sliceLen time.Duration, n int) *loadResult {
	t0 := time.Now()
	w := window{start: t0.Add(warm), sliceLen: sliceLen, n: n}
	res := &loadResult{
		w: w, nRead: n,
		addrs: make([]float64, n), callNs: make([][]float64, n),
		visRecs: make([]float64, n), visNs: make([][]float64, n),
		cpu: make([]float64, n),
	}

	streamStart := t0 // beside the readers, warm-up included
	if spec.after {
		res.upFrom = n - max(1, n/5)
		res.nRead = res.upFrom - 1
		streamStart = w.start.Add(time.Duration(res.nRead) * sliceLen)
	}
	nRead := res.nRead
	readEnd := w.start.Add(time.Duration(nRead) * sliceLen)

	var wg sync.WaitGroup
	logs := make([]*callerLog, len(spec.readers))
	for c := range spec.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[c] = runReader(ctx, spec, c, w, readEnd)
		}()
	}

	// The sampler reads CPU at every boundary of the readers' slices; how
	// late it wakes is one more sample of how late this generator's timers
	// fire.
	var um sync.Mutex // guards res.lateNs and the update-side fields of res
	cpuAt := make([]float64, nRead+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k <= nRead; k++ {
			boundary := w.start.Add(time.Duration(k) * sliceLen)
			if !sleepUntil(ctx, boundary) {
				return
			}
			late := time.Since(boundary)
			um.Lock()
			res.lateNs = append(res.lateNs, float64(late))
			um.Unlock()
			cpuAt[k] = selfCPUSeconds()
			if pid := spec.topo.childPid(); pid != 0 {
				if c, err := procCPUSeconds(pid); err == nil {
					cpuAt[k] += c
				}
			}
		}
	}()

	// Sent batches wait here for the confirmer; the queue is deep enough
	// that neither sender ever blocks on it. inflight is the closed-loop
	// stream's loop: a slot is taken per batch sent and handed back when the
	// batch is visible.
	pending := make(chan pendingBatch, 4*saturatedDepth)
	var inflight chan struct{}
	if spec.batchRate == 0 {
		inflight = make(chan struct{}, spec.depth)
	}
	confirmed := make(chan struct{})
	go func() {
		defer close(confirmed)
		confirmBatches(spec, w, pending, inflight, res, &um)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pending)
		if sleepUntil(ctx, streamStart) {
			sendUpdates(ctx, spec, streamStart, w, pending, inflight, res, &um)
		}
	}()

	wg.Wait()
	<-confirmed

	for _, l := range logs {
		for k := 0; k < nRead; k++ {
			res.addrs[k] += l.addrs[k]
			res.callNs[k] = append(res.callNs[k], l.callNs[k]...)
		}
	}
	for _, st := range spec.stats {
		res.reads.add(st)
	}
	if res.reads.err != nil {
		res.fail(res.reads.err)
	}
	for k := 0; k < nRead; k++ {
		res.cpu[k] = cpuAt[k+1] - cpuAt[k]
	}
	if err := ctx.Err(); err != nil {
		res.fail(err)
	}
	return res
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// callerLog is one reader's private record.
type callerLog struct {
	addrs  []float64
	callNs [][]float64
}

func runReader(ctx context.Context, spec *loadSpec, c int, w window, end time.Time) *callerLog {
	l := &callerLog{addrs: make([]float64, w.n), callNs: make([][]float64, w.n)}
	for k := range l.callNs {
		l.callNs[k] = make([]float64, 0, 1<<12)
	}
	var sb *spanBuf
	if spec.tr != nil {
		sb = spec.tr.buf()
	}
	read := spec.readers[c]
	cur := -1 // slice the caller is in, refreshed on every timed call
	for i := 0; ; i++ {
		if i%spec.timeEvery != 0 {
			if n := read(i); cur >= 0 {
				l.addrs[cur] += float64(n)
			}
			continue
		}
		if ctx.Err() != nil {
			return l
		}
		t1 := time.Now()
		n := read(i)
		t2 := time.Now()
		if t2.After(end) {
			return l
		}
		if cur = w.slice(t2); cur >= 0 {
			l.addrs[cur] += float64(n)
			if n > 0 {
				l.callNs[cur] = append(l.callNs[cur], float64(t2.Sub(t1)))
			}
		}
		if sb != nil && cur%2 == 1 {
			sb.add(spec.tr.newID(), 0, spec.spanName, t1, t2)
		}
	}
}

// sendUpdates is the control plane's load generator. Paced, it is an
// open loop: batch k is due at t0 + k/rate whatever happened to the
// batches before it, and its latency is counted from that due time, so a
// stall is charged to every batch it delays. Otherwise it is a closed
// loop that sends a batch whenever fewer than spec.depth are in flight.
func sendUpdates(ctx context.Context, spec *loadSpec, t0 time.Time, w window, pending chan<- pendingBatch, inflight chan struct{}, res *loadResult, um *sync.Mutex) {
	end := w.end()
	interval := time.Duration(0)
	if spec.batchRate > 0 {
		interval = time.Duration(float64(time.Second) / spec.batchRate)
	}
	for k := 0; ctx.Err() == nil; k++ {
		var due time.Time
		if inflight != nil {
			select {
			case inflight <- struct{}{}:
			case <-ctx.Done():
				return
			}
			due = time.Now()
		} else {
			due = t0.Add(time.Duration(k) * interval)
		}
		if !due.Before(end) {
			return
		}
		// Prepared ahead of the due time; once the oracle has folded the
		// batch in, it must be sent.
		recs := spec.in.nextBatch(spec.batchSize)
		pr := spec.in.oracle.apply(recs)
		if inflight == nil {
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if w.slice(due) >= 0 {
				late := time.Since(due)
				um.Lock()
				res.lateNs = append(res.lateNs, float64(late))
				um.Unlock()
			}
		} else {
			due = time.Now()
		}
		token, err := spec.topo.submit(recs)
		um.Lock()
		res.batches++
		if err != nil {
			res.failedUps++
			res.fail(fmt.Errorf("update batch %d: %w", k, err))
		}
		um.Unlock()
		if err != nil {
			return // the system and the oracle have diverged; stop sending
		}
		pending <- pendingBatch{token: token, pr: pr, due: due, recs: len(recs)}
	}
}

// confirmTimeout bounds how long an applied batch may take to show in a
// lookup before it counts as failed.
const confirmTimeout = 5 * time.Second

// confirmBatches waits, in order, for each batch to be applied on the
// serving side and then asks the serving side for the batch's probe
// address: the first lookup that returns the announced answer is when the
// route is visible.
func confirmBatches(spec *loadSpec, w window, pending <-chan pendingBatch, inflight <-chan struct{}, res *loadResult, um *sync.Mutex) {
	var sb *spanBuf
	if spec.tr != nil {
		sb = spec.tr.buf()
	}
	for pb := range pending {
		err := spec.topo.await(pb.token)
		probed := false
		if err == nil && pb.pr.ok {
			deadline := time.Now().Add(confirmTimeout)
			for {
				var hop ip.NextHop
				hop, err = spec.topo.lookup(pb.pr.addr)
				if err != nil || hop == pb.pr.want {
					probed = err == nil
					break
				}
				if spec.in.oracle.current(pb.pr.addr) != pb.pr.want {
					break // a later batch changed this address again; nothing left to observe
				}
				if time.Now().After(deadline) {
					err = fmt.Errorf("route for %s not visible %s after its batch was applied (hop %d, want %d)",
						pb.pr.addr, confirmTimeout, hop, pb.pr.want)
					break
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		now := time.Now()
		um.Lock()
		if err != nil {
			res.failedUps++
			res.fail(fmt.Errorf("update batch: %w", err))
		} else {
			if probed {
				res.probed++
			}
			if k := w.slice(now); k >= res.upFrom {
				res.visRecs[k] += float64(pb.recs)
				res.visNs[k] = append(res.visNs[k], float64(now.Sub(pb.due)))
			}
		}
		um.Unlock()
		if sb != nil && err == nil {
			sb.add(spec.tr.newID(), 0, "update.visible", pb.due, now)
		}
		if inflight != nil {
			<-inflight
		}
	}
}
