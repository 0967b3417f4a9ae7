package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"clue/internal/ip"
)

// Result describes one lookup served through the partition workers.
type Result struct {
	// Hop and Prefix are the forwarding answer (Found false on no match).
	Hop    ip.NextHop
	Prefix ip.Prefix
	Found  bool
	// Home is the worker the range index assigned; Worker the one that
	// actually served (different when Diverted).
	Home   int
	Worker int
	// Diverted reports the home queue was full and the lookup was
	// redirected to the least-loaded worker.
	Diverted bool
	// Version is the snapshot version that answered.
	Version uint64
}

// lookupReq travels down a worker queue. It is always a home-partition
// group of addresses — a Dispatch is a group of one — which the worker
// serves against one snapshot load, writing the answers into out (same
// length as batch) before signalling done. done is a 1-buffered
// completion channel owned by the dispatcher.
type lookupReq struct {
	home     int
	diverted bool
	batch    []ip.Addr
	out      []Result
	done     chan struct{}
	// stall, when non-nil, makes the worker block until the channel is
	// closed instead of serving — tests use it to hold a queue full and
	// exercise the divert path deterministically.
	stall <-chan struct{}
	// poison makes the worker panic on dequeue — the chaos/test hook for
	// the panic-recovery path.
	poison bool
}

// worker is one partition worker goroutine — the software analog of a
// TCAM chip with its FIFO queue. Unlike a chip it holds no table of its
// own: every worker reads the one shared snapshot, so a diverted lookup
// is answered exactly like a home one and there is no DRed to keep.
type worker struct {
	id    int
	rt    *Runtime
	queue chan lookupReq
	// state is the WorkerState health machine; dispatchers read it to
	// route around draining/failed workers.
	state  atomic.Int32
	served atomic.Int64
	// sketch counts sampled served addresses per stride bucket — the
	// traffic-weight signal the rebalancer drains (Swap(0)) on each pass.
	// The worker goroutine only ever adds; the counters are atomic so the
	// drain needs no coordination with the serve path.
	sketch []atomic.Uint64
	// skTick drives the 1-in-sketchSamplePeriod recording sample. It is
	// atomic because the worker goroutine is not its only advancer: a
	// DispatchBatch caller serving an idle worker's group inline draws
	// its tick range here too (see sampleBatch).
	skTick atomic.Uint64
}

func newWorker(id int, rt *Runtime) *worker {
	return &worker{
		id:     id,
		rt:     rt,
		queue:  make(chan lookupReq, rt.cfg.QueueDepth),
		sketch: make([]atomic.Uint64, sketchBuckets),
	}
}

// healthy reports whether the worker accepts new lookups.
func (w *worker) healthy() bool { return w.state.Load() == int32(WorkerHealthy) }

// run drains the queue until it is closed (Runtime.Close). The goroutine
// never dies early: handle recovers panics, so a failed worker keeps
// draining whatever was queued to it and stays recoverable.
func (w *worker) run() {
	defer w.rt.workersWG.Done()
	for req := range w.queue {
		w.handle(req)
	}
}

// handle serves one request, surviving panics: a panicking handler
// marks the worker failed (which re-homes its range) and still answers
// the request straight off the snapshot so the dispatcher never hangs
// on the done channel. A request without a done channel is a group
// DispatchBatch serves inline on its own goroutine, only ever unpaced
// (see Runtime.DispatchBatch): the same path, minus the signal.
func (w *worker) handle(req lookupReq) {
	defer func() {
		if rec := recover(); rec != nil {
			w.rt.failAfterPanic(w)
			w.answerAfterPanic(req)
		}
	}()
	if req.stall != nil {
		<-req.stall
		return
	}
	if req.poison {
		panic(fmt.Sprintf("serve: worker %d poisoned", w.id))
	}
	w.serveBatch(req)
	w.pace(len(req.batch))
	if req.done != nil {
		req.done <- struct{}{}
	}
}

// pace holds the worker for ServicePace per address served, emulating a
// chip's fixed service rate (see Config.ServicePace). It runs after the
// snapshot work but before the answer is released, so a request's
// end-to-end latency includes its service time and the queue drains at
// the configured rate.
func (w *worker) pace(n int) {
	if p := w.rt.cfg.ServicePace; p > 0 {
		time.Sleep(p * time.Duration(n))
	}
}

// answerAfterPanic completes a request whose handler panicked before the
// done send (the only panic windows — serveBatch and poison). The
// dispatcher is still waiting, so the answers are computed from the bare
// snapshot without touching the traffic sketch or the served counter.
// serveBatch counts a group before probing it, so a group that panicked
// there is already counted; a poisoned request stays uncounted.
func (w *worker) answerAfterPanic(req lookupReq) {
	slot := w.rt.ep.enter(uint64(w.id))
	w.fillBatch(w.rt.snap.Load(), req)
	slot.exit()
	if req.done != nil {
		req.done <- struct{}{}
	}
}

// serveBatch answers a whole home-partition group against one snapshot
// load and one epoch pin — the per-request overhead is paid once for the
// group, and the group's addresses share the worker's CPU-cache-warm
// slice of the table.
//
// The traffic sketch is sampled in its own pass before the probes, not
// per address inside them. The sketch add is a locked read-modify-write,
// which on x86 waits for every earlier load to retire: inside the probe
// loop it drains the overlapping cache misses of the cold lookups in
// flight once per sketchSamplePeriod addresses, serialising them again
// (one core of a 2-vCPU x86 VM, 1 M routes, 8 192 cold addresses:
// 133–184 ns/addr with the probes alone, 172–245 with the add inline).
// The separate pass walks the same skTick sequence, so it records
// exactly the samples an inline per-address counter would.
//
// serveBatch runs on the worker goroutine and, for a group served
// inline, on the DispatchBatch caller's: several at once for one worker.
// Everything it shares across calls is atomic.
func (w *worker) serveBatch(req lookupReq) {
	slot := w.rt.ep.enter(uint64(w.id))
	defer slot.exit()
	snap := w.rt.snap.Load()
	w.served.Add(int64(len(req.batch)))
	w.sampleBatch(req.batch)
	w.fillBatch(snap, req)
}

// sampleBatch records every sketchSamplePeriod-th address of batch in
// the traffic sketch, continuing the worker's skTick sequence across
// groups. One Add claims the group's tick range, so concurrent groups
// draw disjoint ranges and together record exactly the samples one
// goroutine serving them in some order would: one per period of ticks.
func (w *worker) sampleBatch(batch []ip.Addr) {
	n := uint64(len(batch))
	tick := w.skTick.Add(n) - n
	// The first sampled index is the one that brings tick+1+i to a
	// multiple of the period: -(tick+1) mod period, i.e. ^tick.
	for i := int(^tick & (sketchSamplePeriod - 1)); i < len(batch); i += sketchSamplePeriod {
		w.sketch[uint32(batch[i])>>sketchShift].Add(1)
	}
}

// fillBatch answers req's group from snap into req.out: a bare probe
// loop — no atomic and no helper returning a Result between lookups — so
// the cache misses of successive probes overlap. Every Result carries
// the group's constant provenance.
func (w *worker) fillBatch(snap *Snapshot, req lookupReq) {
	out := req.out[:len(req.batch)]
	for i, a := range req.batch {
		hop, pfx, ok := snap.Lookup(a)
		out[i] = Result{Hop: hop, Prefix: pfx, Found: ok, Home: req.home, Worker: w.id, Diverted: req.diverted, Version: snap.Version}
	}
}

// resetSketch zeroes the traffic sketch. The writer calls it on every
// worker when a re-homed snapshot publishes: samples recorded under the
// old cut assignment must not feed the next recut decision again. Doing
// it at publication rather than lazily on the worker's next request
// matters — a worker that serves nothing between the recut and the next
// rebalance pass would otherwise hand its stale samples to the drain.
// The rebalancer's decayed aggregate (not this buffer) carries the
// traffic estimate across recuts.
func (w *worker) resetSketch() {
	for i := range w.sketch {
		w.sketch[i].Store(0)
	}
}
