package serve

import (
	"errors"
	"fmt"
	"sync"

	"clue/internal/ip"
	"clue/internal/ttf"
)

// WorkerState is the health of one partition worker. The state machine
// is Healthy → Failed (FailWorker, or a recovered panic) → Healthy
// (RecoverWorker).
type WorkerState int32

const (
	// WorkerHealthy accepts new lookups and owns a home range.
	WorkerHealthy WorkerState = iota
	// WorkerFailed is out of service: no new lookups, and no home range
	// once the re-home publication is live. Its goroutine still serves
	// whatever was queued before the failure, then stays parked on its
	// (now quiet) queue so RecoverWorker can bring it back without
	// respawning anything.
	WorkerFailed
)

// String names the state for stats and logs.
func (s WorkerState) String() string {
	switch s {
	case WorkerHealthy:
		return "healthy"
	case WorkerFailed:
		return "failed"
	}
	return fmt.Sprintf("WorkerState(%d)", int32(s))
}

// ErrUnknownWorker reports a worker id outside [0, Workers).
var ErrUnknownWorker = errors.New("serve: unknown worker")

// ErrWorkerState reports a fail/recover call against a worker whose
// current state does not allow the transition (double-fail,
// recover-when-healthy, failing the last healthy worker).
var ErrWorkerState = errors.New("serve: invalid worker state transition")

// ErrNoHealthyWorkers is returned by the dispatch paths when every
// partition worker is failed — the only condition under
// which worker-path forwarding stops. The snapshot path (Lookup /
// LookupBatch) keeps answering regardless.
var ErrNoHealthyWorkers = errors.New("serve: no healthy workers")

// ErrEnqueueTimeout is returned by the dispatch paths when every
// eligible worker queue stayed full for the whole retry budget (32
// backoff rounds, about 128 ms).
var ErrEnqueueTimeout = errors.New("serve: enqueue timed out, all eligible worker queues full")

// FailWorker takes worker id out of service: the worker is marked
// failed immediately (no new lookups are routed to it, its queued
// backlog still completes), its home range is re-split exactly evenly
// across the surviving workers — the disjoint table makes the recut a
// pure boundary move with no priority reordering — and the re-homed
// snapshot is published before FailWorker returns.
//
// Failing the last healthy worker is refused (ErrWorkerState): operator
// action never stops forwarding. Only a panic can take the last worker
// down.
func (r *Runtime) FailWorker(id int) error {
	if id < 0 || id >= len(r.workers) {
		return fmt.Errorf("%w: %d (have %d)", ErrUnknownWorker, id, len(r.workers))
	}
	if err := r.setState(id, WorkerHealthy, WorkerFailed); err != nil {
		return err
	}
	return r.submitCtl(nil)
}

// RecoverWorker returns a failed worker to service: its state flips to
// healthy and the next published snapshot re-homes the partition bounds
// to include it again. RecoverWorker returns after the recut snapshot
// is published.
func (r *Runtime) RecoverWorker(id int) error {
	if id < 0 || id >= len(r.workers) {
		return fmt.Errorf("%w: %d (have %d)", ErrUnknownWorker, id, len(r.workers))
	}
	if err := r.setState(id, WorkerFailed, WorkerHealthy); err != nil {
		return err
	}
	return r.submitCtl(nil)
}

// setState flips worker id from one state to the other, under healthMu
// so that failing a worker checks "not the last healthy worker" and
// flips in one step: two FailWorker calls on the last two healthy
// workers must not both pass the check. The lock is released before the
// caller blocks on the publication.
func (r *Runtime) setState(id int, from, to WorkerState) error {
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	w := r.workers[id]
	if to == WorkerFailed && w.healthy() && r.healthyCount() <= 1 {
		return fmt.Errorf("%w: worker %d is the last healthy worker", ErrWorkerState, id)
	}
	if !w.state.CompareAndSwap(int32(from), int32(to)) {
		return fmt.Errorf("%w: worker %d is %s, not %s", ErrWorkerState, id, WorkerState(w.state.Load()), from)
	}
	return nil
}

// WorkerStates returns each worker's current health state.
func (r *Runtime) WorkerStates() []WorkerState {
	out := make([]WorkerState, len(r.workers))
	for i, w := range r.workers {
		out[i] = WorkerState(w.state.Load())
	}
	return out
}

// healthyCount counts workers currently accepting new lookups.
func (r *Runtime) healthyCount() int {
	n := 0
	for _, w := range r.workers {
		if w.healthy() {
			n++
		}
	}
	return n
}

// submitCtl queues a control op that forces the writer to publish a
// re-homed snapshot (fresh partition bounds from the current health
// states) and waits for the publication. A non-nil plan is installed
// first as the writer's persistent weighted cut plan (see
// Runtime.Rebalance).
func (r *Runtime) submitCtl(plan []ip.Addr) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if r.closed.Load() {
		return ErrClosed
	}
	op := updateOp{ctl: true, plan: plan, done: make(chan ttf.TTF, 1)}
	r.updates <- op
	<-op.done
	return nil
}

// Republish publishes a fresh snapshot recut from the current worker
// health states and returns once the publication is live. It is the
// operator / test hook for forcing a snapshot swap without a route
// change — the same control publication FailWorker and RecoverWorker
// ride — so the oracle's flush/swap lifecycle commands are exercised
// without taking a worker out of service.
func (r *Runtime) Republish() error { return r.submitCtl(nil) }

// failAfterPanic is the panic-recovery path out of worker.run: the
// worker is forced straight to failed and a rehome publication is
// requested without blocking the (recovering) worker goroutine. If the
// update queue is full the next writer batch re-homes anyway — every
// snapshot publication reads the live health states — and the enqueue
// health checks already route new lookups away.
func (r *Runtime) failAfterPanic(w *worker) {
	w.state.Store(int32(WorkerFailed))
	r.m.workerPanics.Add(1)
	if r.closed.Load() {
		return
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if r.closed.Load() {
		return
	}
	select {
	case r.updates <- updateOp{ctl: true, done: make(chan ttf.TTF, 1)}:
	default:
	}
}

// StallWorker wedges worker id: its goroutine parks on the returned
// release func's channel, so its queue stops draining and fills up.
// This is the chaos/test hook for a stuck partition — it drives the
// divert, retry and timeout paths deterministically. The stall occupies
// one queue slot; release is idempotent.
func (r *Runtime) StallWorker(id int) (release func(), err error) {
	if id < 0 || id >= len(r.workers) {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrUnknownWorker, id, len(r.workers))
	}
	if r.closed.Load() {
		return nil, ErrClosed
	}
	ch := make(chan struct{})
	select {
	case r.workers[id].queue <- lookupReq{stall: ch}:
	default:
		return nil, fmt.Errorf("serve: worker %d queue full, cannot inject stall", id)
	}
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }, nil
}

// PoisonWorker makes worker id panic on its next dequeue — the
// chaos/test hook for the panic-recovery path in worker.run. The panic
// is recovered, the worker goes straight to failed and its range is
// re-homed; the goroutine survives for a later RecoverWorker.
func (r *Runtime) PoisonWorker(id int) error {
	if id < 0 || id >= len(r.workers) {
		return fmt.Errorf("%w: %d (have %d)", ErrUnknownWorker, id, len(r.workers))
	}
	if r.closed.Load() {
		return ErrClosed
	}
	select {
	case r.workers[id].queue <- lookupReq{poison: true}:
		return nil
	default:
		return fmt.Errorf("serve: worker %d queue full, cannot inject poison", id)
	}
}
