package serve

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/trie"
	"clue/internal/ttf"
)

// ErrClosed is returned by Dispatch/ApplyBatch/Announce/Withdraw after
// Close.
// (Lookup keeps answering from the last published snapshot — RCU readers
// are never cut off.)
var ErrClosed = errors.New("serve: runtime closed")

// Config parameterises a Runtime. Zero values take serving defaults.
type Config struct {
	// Workers is the number of partition worker goroutines (default 4,
	// the paper's TCAM count).
	Workers int
	// QueueDepth bounds each worker's request queue (default 256, the
	// paper's FIFO depth). A full home queue diverts to the least-loaded
	// worker.
	QueueDepth int
	// ServicePace, when positive, holds each worker busy for this long
	// per address served — the software stand-in for a TCAM chip's fixed
	// service rate. With a pace set, a partition genuinely has capacity
	// 1/pace, so overload experiments (the rebalance comparison, the
	// scenario lab) see load-dependent queue growth instead of
	// scheduler-noise-driven diverts. 0 (the default) serves as fast as
	// the host allows.
	ServicePace time.Duration
	// Rebalance configures the load-aware repartitioning loop (see
	// RebalanceConfig; the zero value leaves periodic rebalancing off,
	// with manual Runtime.Rebalance calls still available).
	Rebalance RebalanceConfig
}

// validate rejects configurations withDefaults would silently accept:
// negative sizes have no meaning and used to fall through to the
// channel/make calls with confusing panics.
func (c Config) validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("serve: Config.Workers must be >= 0 (0 means default), got %d", c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("serve: Config.QueueDepth must be >= 0 (0 means default), got %d", c.QueueDepth)
	}
	if c.ServicePace < 0 {
		return fmt.Errorf("serve: Config.ServicePace must be >= 0 (0 means unpaced), got %v", c.ServicePace)
	}
	return c.Rebalance.validate()
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	c.Rebalance = c.Rebalance.withDefaults()
	return c
}

const (
	// updateQueue bounds the announce/withdraw channel; submitters block
	// when the writer falls behind.
	updateQueue = 1024
	// batchMax caps how many queued ops the writer coalesces into one
	// snapshot swap.
	batchMax = 64
)

// enqueue backoff schedule: the first retry sleeps enqueueBackoffMin
// and each round doubles up to enqueueBackoffMax, re-checking worker
// health every round so a recovery or divert target opening up is
// picked up quickly. After enqueueRetries rounds — about 128 ms of
// sleeping — the dispatch fails with ErrEnqueueTimeout, which turns a
// wedged worker from a forever-block into a bounded error.
const (
	enqueueBackoffMin = 20 * time.Microsecond
	enqueueBackoffMax = 5 * time.Millisecond
	enqueueRetries    = 32
)

// Latency sampling masks (sample when counter & mask == 0). Snapshot
// lookups are ~20ns, so timing every one would more than double the hot
// path; 1/128 sampling keeps the added cost well under the 5% overhead
// budget while still collecting thousands of samples per second at
// realistic rates. Dispatches are ~3 orders of magnitude slower, so a
// denser 1/8 sample is safe; queue depths are read on the enqueue fast
// path and sampled 1/32.
const (
	lookupSampleMask   = 127
	dispatchSampleMask = 7
	queueSampleMask    = 31
)

// updateOp is one queued ApplyBatch call — validated records, applied in
// order and published together — with its completion channel, which
// receives the records' summed TTF. ctl ops carry no route change: they
// force the writer to publish a re-homed snapshot from the current
// worker health states. A ctl op may additionally carry a rebalancer cut
// plan, which the writer installs as its persistent plan before
// publishing.
type updateOp struct {
	recs []ribio.UpdateRecord
	ctl  bool
	plan []ip.Addr
	done chan ttf.TTF
}

// writerScratch holds the writer goroutine's reusable per-batch buffers,
// all owned exclusively by the writer.
type writerScratch struct {
	batch   []updateOp
	results []ttf.TTF
	// insLast/delLast collect the last addresses of routes the batch
	// inserted into / deleted from the sorted mirror; sorted, they feed
	// the stride-index patch on the next snapshot.
	insLast []ip.Addr
	delLast []ip.Addr
	// hopPatches records next-hop changes to existing table positions.
	// The positions are only meaningful when the batch made no structural
	// change (no inserts or deletes shifting them) — exactly the case
	// where the writer patches hops into the live arena in place instead
	// of copying the table.
	hopPatches []hopPatch
	// mergeOps and spare serve mergeDiffIntoTable: the diff sorted into
	// table order, and the second mirror buffer the merge writes into
	// (swapped with Runtime.table afterwards).
	mergeOps []onrtc.Op
	spare    []ip.Route
	// down is the per-publication worker health mask (true = out of
	// service), read fresh from the worker states for every snapshot.
	down []bool
}

// mergeMinOps is the diff size from which the writer merges a diff into
// its sorted mirror in one pass instead of op by op: each op costs a
// memmove of up to the whole table, so a diff of K ops costs O(K·M) op
// by op against O(M + K log K) merged, and the merge's fixed cost — one
// copy of the table — is recovered within a handful of structural ops.
const mergeMinOps = 16

// hopPatch is one in-place next-hop change: table position -> new hop.
type hopPatch struct {
	pos int32
	hop uint32
}

// retiredSnap is a snapshot replaced by a newer publication, remembered
// with the epoch during which it was last current. Once every reader has
// pinned a strictly newer epoch the snapshot is unreachable and its
// arena reference can be dropped.
type retiredSnap struct {
	snap  *Snapshot
	epoch uint64
}

// arenaPoolMax bounds the writer's free-arena pool. Two arenas cover the
// steady-state ping-pong between the current and the just-retired
// snapshot; a couple more absorb reclamation lag under reader bursts.
const arenaPoolMax = 3

// Runtime is the concurrent forwarding service over an ONRTC-compressed
// table.
//
// Reads are RCU-style: the compressed table lives in an immutable
// Snapshot behind an atomic pointer, so Lookup and the partition workers
// never take a lock and never block updates. Writes are single-writer:
// one goroutine owns the onrtc.Updater, drains the bounded update queue
// in batches, applies each record's compressed-table diff to its sorted
// mirror, prices it with the paper's TTF bound (ttf.CostModel.CLUEBound),
// and publishes the next snapshot — stamped with the updater's table
// digest — with one atomic store.
type Runtime struct {
	cfg Config
	upd *onrtc.Updater // owned by the writer goroutine after New
	// table is the writer's sorted mirror of the compressed table,
	// maintained incrementally from diff ops so a snapshot swap is a
	// memcpy instead of a full trie walk — the O(1)-update property of
	// the paper carried through to snapshot publication.
	table   []ip.Route
	ws      writerScratch
	snap    atomic.Pointer[Snapshot]
	updates chan updateOp
	workers []*worker
	m       metrics

	// ep is the epoch clock readers pin around snapshot access; arenas is
	// the writer's free pool of reclaimed arenas; retired the FIFO of
	// replaced snapshots awaiting epoch safety. arenas/retired are
	// writer-owned.
	ep      *epochs
	arenas  []*arena
	retired []retiredSnap
	// retiredLen/oldestEpoch mirror the retired list for Stats readers.
	retiredLen  atomic.Int64
	oldestEpoch atomic.Uint64
	// pinSeed spreads Snapshot() callers across epoch slots.
	pinSeed atomic.Uint64

	// cutPlan is the writer's persistent weighted cut plan (nil until the
	// rebalancer publishes one): every publication re-applies it, so the
	// weighted boundaries survive route churn between recuts. Writer-owned
	// after installation via a ctl op.
	cutPlan []ip.Addr

	// rb is the rebalancer's aggregate state (decayed traffic weights and
	// carve scratch), guarded by rebalanceMu so the periodic loop and
	// manual Rebalance calls serialize.
	rebalanceMu   sync.Mutex
	rb            rebalanceState
	rebalanceStop chan struct{}
	rebalanceWG   sync.WaitGroup

	inflight   atomic.Int64
	closed     atomic.Bool
	closeOnce  sync.Once
	writerDone chan struct{}
	workersWG  sync.WaitGroup
}

// New compresses routes, publishes snapshot version 1 and starts the
// writer and worker goroutines.
func New(routes []ip.Route, cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("serve: Workers must be >= 1, got %d", cfg.Workers)
	}
	if len(routes) == 0 {
		return nil, errors.New("serve: empty routing table")
	}
	upd := onrtc.BuildUpdater(trie.FromRoutes(routes))
	base := upd.Table().Routes()
	// Headroom on the sorted mirror keeps the insert fast path from
	// reallocating for the first batches of an update storm.
	table := make([]ip.Route, len(base), len(base)+len(base)/8+64)
	copy(table, base)
	r := &Runtime{
		cfg:   cfg,
		upd:   upd,
		table: table,
		ws: writerScratch{
			batch:   make([]updateOp, 0, batchMax),
			results: make([]ttf.TTF, 0, batchMax),
		},
		updates:    make(chan updateOp, updateQueue),
		writerDone: make(chan struct{}),
	}
	r.ep = newEpochs()
	r.m.initHistograms(cfg.Workers)
	r.m.peakRoutes.Store(int64(len(base)))
	first := newSnapshot(1, base, cfg.Workers)
	first.ar.refs = 1
	r.snap.Store(first)
	r.workers = make([]*worker, cfg.Workers)
	for i := range r.workers {
		r.workers[i] = newWorker(i, r)
		r.workersWG.Add(1)
		go r.workers[i].run()
	}
	go r.writer()
	if cfg.Rebalance.Interval > 0 {
		r.rebalanceStop = make(chan struct{})
		r.rebalanceWG.Add(1)
		go r.rebalancer()
	}
	return r, nil
}

// Snapshot returns the current published snapshot — the RCU read-side
// handle. Callers can hold it across many lookups; its table positions
// never change under them (next hops may advance in place, each read
// returning a value that was published at some instant). Handing out
// the handle marks its arena escaped: the writer stops patching it in
// place and never recycles it, leaving reclamation to the GC. The pin
// around the load closes the race with a concurrent recycle decision —
// either the writer sees the pin and defers, or this load is ordered
// after the next publication and returns the newer snapshot.
func (r *Runtime) Snapshot() *Snapshot {
	slot := r.ep.enter(r.pinSeed.Add(1))
	s := r.snap.Load()
	s.ar.escaped.Store(true)
	slot.exit()
	return s
}

// Version returns the currently published snapshot version without
// escaping the snapshot (unlike Snapshot, this leaves the writer's
// in-place patch and arena recycling paths available).
func (r *Runtime) Version() uint64 { return r.snap.Load().Version }

// TableHash returns the published snapshot's canonical-table digest
// (Snapshot.CanonicalHash, O(1)) without escaping the snapshot's arena.
// The value is exact for the published table, so polling it against an
// independently computed expectation is the scenario lab's
// time-to-converge probe and a feed replica's hash check. Like Version
// it takes no epoch pin: the digest is a field of the Snapshot struct,
// which the GC owns and the writer never recycles — only arenas are.
func (r *Runtime) TableHash() uint64 { return r.snap.Load().CanonicalHash() }

// Lookup resolves addr on the snapshot path: an epoch pin, one atomic
// load plus one two-level indexed probe, no locks, regardless of
// concurrent updates. One in lookupSampleMask+1 calls is timed into the
// snapshot-lookup latency histogram; the sampling decision and the
// epoch-slot seed both ride the counter bump the untimed path pays
// anyway.
func (r *Runtime) Lookup(addr ip.Addr) (ip.NextHop, ip.Prefix, bool) {
	tick := r.m.snapshotLookups.Add(1)
	slot := r.ep.enter(uint64(tick))
	var start time.Time
	sampled := tick&lookupSampleMask == 0
	if sampled {
		start = time.Now()
	}
	hop, pfx, ok := r.snap.Load().Lookup(addr)
	slot.exit()
	if sampled {
		r.m.lookupLat.record(0, time.Since(start).Nanoseconds())
	}
	return hop, pfx, ok
}

// LookupBatch resolves addrs on the snapshot path with one epoch pin
// and one atomic load for the whole batch. Results are written into out
// (reused when its capacity suffices) in input order and returned with
// the answering snapshot's version.
func (r *Runtime) LookupBatch(addrs []ip.Addr, out []LookupResult) ([]LookupResult, uint64) {
	tick := r.m.snapshotLookups.Add(int64(len(addrs)))
	slot := r.ep.enter(uint64(tick))
	snap := r.snap.Load()
	out = snap.LookupBatch(addrs, out)
	slot.exit()
	return out, snap.Version
}

// singleReq is Dispatch's pooled one-address group: the request's batch
// and out slices point into it, and it owns its completion channel, which
// is clean whenever the request is back in the pool.
type singleReq struct {
	addr [1]ip.Addr
	res  [1]Result
	done chan struct{}
}

var singlePool = sync.Pool{New: func() any { return &singleReq{done: make(chan struct{}, 1)} }}

// Dispatch routes the lookup to its home partition worker over a bounded
// queue, mirroring the paper's Indexing Logic. It is a one-address
// DispatchBatch group: the same enqueue, divert and worker serve path. A
// full home queue — or a failed home worker — diverts the request to
// the least-loaded healthy worker (Adaptive Load Balancing Logic), which
// answers it from the same shared snapshot. Dispatch blocks until the
// request is served, bounded by the enqueue retry budget: a wedged
// runtime yields ErrEnqueueTimeout (or ErrNoHealthyWorkers), never a
// hang.
func (r *Runtime) Dispatch(addr ip.Addr) (Result, error) {
	if r.closed.Load() {
		return Result{}, ErrClosed
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if r.closed.Load() {
		return Result{}, ErrClosed
	}
	// Sampled end-to-end timing (enqueue to answer), classified by
	// outcome path once the result is back.
	var start time.Time
	sampled := r.m.dispatchTick.Add(1)&dispatchSampleMask == 0
	if sampled {
		start = time.Now()
	}
	sr := singlePool.Get().(*singleReq)
	sr.addr[0] = addr
	home := r.snap.Load().Home(addr)
	if err := r.enqueue(lookupReq{home: home, batch: sr.addr[:], out: sr.res[:], done: sr.done}); err != nil {
		singlePool.Put(sr) // never enqueued, so the channel is clean
		return Result{}, err
	}
	r.m.dispatched.Add(1)
	<-sr.done
	res := sr.res[0]
	singlePool.Put(sr)
	if sampled {
		ns := time.Since(start).Nanoseconds()
		if res.Diverted {
			r.m.dispatchDivert.record(res.Worker, ns)
		} else {
			r.m.dispatchHome.record(res.Worker, ns)
		}
	}
	return res, nil
}

// batchScratch holds one DispatchBatch call's reusable buffers, pooled
// across calls. Each dones channel is made once and reused: a scratch
// goes back to the pool only after every group it enqueued has
// signalled, so its channels are always clean.
type batchScratch struct {
	homes   []int32
	counts  []int32
	offs    []int32
	ordered []ip.Addr
	perm    []int32
	res     []Result
	dones   []chan struct{}
	inline  []int32
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) size(workers, n int) {
	if cap(sc.counts) < workers {
		sc.counts = make([]int32, workers)
		sc.offs = make([]int32, workers)
		sc.dones = make([]chan struct{}, workers)
		for i := range sc.dones {
			sc.dones[i] = make(chan struct{}, 1)
		}
		sc.inline = make([]int32, 0, workers)
	}
	sc.counts = sc.counts[:workers]
	sc.offs = sc.offs[:workers]
	sc.dones = sc.dones[:workers]
	if cap(sc.homes) < n {
		sc.homes = make([]int32, n)
		sc.ordered = make([]ip.Addr, n)
		sc.perm = make([]int32, n)
		sc.res = make([]Result, n)
	}
	sc.homes = sc.homes[:n]
	sc.ordered = sc.ordered[:n]
	sc.perm = sc.perm[:n]
	sc.res = sc.res[:n]
}

// DispatchBatch routes a batch of lookups through the partition workers
// with one queue operation per worker: the addresses are grouped by home
// partition (a counting sort — improving worker-side cache locality and
// amortizing queue traffic), each group is served against a single
// snapshot load, and the results are scattered back into input order.
// Groups whose home queue is full divert whole to the least-loaded
// worker. Results are written into out (reused when its capacity
// suffices).
//
// Only contention takes the hop: when workers are unpaced, a group whose
// home worker is healthy with an empty queue is served on the calling
// goroutine, through the worker's own handler — same epoch pin, served
// count, sketch samples and provenance (Worker == Home, not Diverted).
// Handing it to an idle worker would buy no parallelism the caller
// lacks and cost two wake-ups. The other groups are enqueued first, so
// their workers run beside the caller. A paced worker stands for a chip
// with a fixed service rate, so with ServicePace set every group queues.
func (r *Runtime) DispatchBatch(addrs []ip.Addr, out []Result) ([]Result, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if r.closed.Load() {
		return nil, ErrClosed
	}
	n := len(addrs)
	if cap(out) < n {
		out = make([]Result, n)
	} else {
		out = out[:n]
	}
	if n == 0 {
		return out, nil
	}
	start := time.Now() // whole-call latency, µs-scale: timed unsampled
	snap := r.snap.Load()
	nw := len(r.workers)
	sc := batchPool.Get().(*batchScratch)
	sc.size(nw, n)
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	for i, a := range addrs {
		h := int32(snap.Home(a))
		sc.homes[i] = h
		sc.counts[h]++
	}
	off := int32(0)
	for h := 0; h < nw; h++ {
		sc.offs[h] = off
		off += sc.counts[h]
	}
	for i, a := range addrs {
		h := sc.homes[i]
		j := sc.offs[h]
		sc.ordered[j] = a
		sc.perm[j] = int32(i)
		sc.offs[h] = j + 1
	}
	// group is home h's slice of the sorted batch; the scatter pass
	// left sc.offs[h] at the group's end.
	group := func(h int) lookupReq {
		end, cnt := sc.offs[h], sc.counts[h]
		return lookupReq{home: h, batch: sc.ordered[end-cnt : end], out: sc.res[end-cnt : end]}
	}
	unpaced := r.cfg.ServicePace == 0
	sc.inline = sc.inline[:0]
	pending := 0
	var enqErr error
	for h := 0; h < nw; h++ {
		if sc.counts[h] == 0 {
			continue
		}
		if w := r.workers[h]; unpaced && w.healthy() && len(w.queue) == 0 {
			sc.inline = append(sc.inline, int32(h))
			continue
		}
		req := group(h)
		req.done = sc.dones[pending]
		if err := r.enqueue(req); err != nil {
			enqErr = err // this group never enqueued; its channel is clean
			break
		}
		pending++
	}
	if enqErr == nil {
		for _, h := range sc.inline {
			r.workers[h].handle(group(int(h)))
		}
	}
	// Drain every enqueued group even when a later group failed:
	// returning the scratch to the pool with a send still pending would
	// poison an unrelated future dispatch.
	for i := 0; i < pending; i++ {
		<-sc.dones[i]
	}
	if enqErr != nil {
		batchPool.Put(sc)
		return nil, enqErr
	}
	r.m.dispatched.Add(int64(n))
	r.m.dispatchBatches.Add(1)
	for j := 0; j < n; j++ {
		out[sc.perm[j]] = sc.res[j]
	}
	batchPool.Put(sc)
	r.m.dispatchBatchLat.record(0, time.Since(start).Nanoseconds())
	if pending == 0 {
		// Parking on a done channel was this call's scheduling point. A
		// closed-loop caller served wholly inline would otherwise hold
		// its P, and the netpoller and other goroutines would run late.
		runtime.Gosched()
	}
	return out, nil
}

// enqueue places req on its home worker's queue, diverting to the
// least-loaded healthy worker when the home queue is full or the home
// worker is out of service (the Adaptive Load Balancing Logic, extended
// with health awareness). When the home worker is down and the
// preferred divert target cannot accept either, any healthy worker with
// queue space serves as a last-resort target. Instead of blocking
// forever on a wedged queue, full queues are retried with exponential
// backoff for at most enqueueRetries rounds; worker health is re-read
// every round so failures and recoveries take effect mid-wait.
func (r *Runtime) enqueue(req lookupReq) error {
	backoff := enqueueBackoffMin
	for attempt := 0; ; attempt++ {
		home := req.home
		homeHealthy := r.workers[home].healthy()
		if homeHealthy && r.trySend(home, req, false) {
			return nil
		}
		// Home full or out of service: divert to the least-loaded
		// healthy worker.
		if target := r.leastLoaded(home); target != home && r.trySend(target, req, true) {
			return nil
		}
		if !homeHealthy {
			// Home is down and the locality-preferred divert target (if
			// any) could not accept. leastLoaded skips empty-range
			// workers, so before backing off — and before
			// declaring the runtime dead — fall back to ANY healthy worker
			// with queue space. (This arm used to be reachable only when
			// leastLoaded found no target at all, so a full divert queue
			// sent dispatches into the retry loop while a healthy worker
			// sat idle.)
			anyHealthy := false
			for i, w := range r.workers {
				if i == home || !w.healthy() {
					continue
				}
				anyHealthy = true
				if r.trySend(i, req, true) {
					return nil
				}
			}
			if !anyHealthy {
				return ErrNoHealthyWorkers
			}
		}
		// Every eligible queue is full: bounded backoff, not a block.
		if attempt == 0 {
			r.m.overflowBlocked.Add(int64(len(req.batch)))
		} else {
			r.m.enqueueRetries.Add(1)
		}
		if attempt >= enqueueRetries {
			r.m.enqueueTimeouts.Add(1)
			return fmt.Errorf("%w (home %d, %d attempts)", ErrEnqueueTimeout, req.home, attempt+1)
		}
		time.Sleep(backoff)
		if backoff < enqueueBackoffMax {
			backoff *= 2
		}
	}
}

// trySend attempts a non-blocking send of req to target's queue,
// marking it diverted when it is leaving its home partition. Accepted
// sends sample the target's queue depth (1 in queueSampleMask+1) into
// the queue-depth histogram — the enqueue-time congestion signal the
// divert decision itself acts on.
func (r *Runtime) trySend(target int, req lookupReq, diverted bool) bool {
	req.diverted = diverted
	select {
	case r.workers[target].queue <- req:
		if diverted {
			r.m.diverted.Add(int64(len(req.batch)))
		}
		if r.m.queueTick.Add(1)&queueSampleMask == 0 {
			r.m.queueDepth.record(target, int64(len(r.workers[target].queue)))
		}
		return true
	default:
		return false
	}
}

// leastLoaded returns the healthy worker (other than home) with the
// shortest queue right now, or home itself when no other worker is
// eligible.
func (r *Runtime) leastLoaded(home int) int {
	snap := r.snap.Load()
	best, bestLen := home, int(^uint(0)>>1)
	for i, w := range r.workers {
		if i == home {
			continue
		}
		// Failed workers accept no new lookups.
		if !w.healthy() {
			continue
		}
		// A worker with a zero-width home range has no locality to offer
		// a diverted lookup; skip it so tiny tables don't shed load onto
		// permanently-idle partitions.
		if snap.emptyHome(i) {
			continue
		}
		if l := len(w.queue); l < bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// ApplyBatch queues recs as one writer op and blocks until the writer
// has applied every record, in order, and published the one snapshot
// that contains them all: when ApplyBatch returns, every subsequent
// Lookup/Dispatch sees the whole batch, and the batch cost one
// publication however many records it carried. Every record is checked
// first (ribio.UpdateRecord.Validate); one bad record — a zero-hop
// announce, say — rejects the whole call and nothing is applied. The
// returned TTF sums the records' costs.
func (r *Runtime) ApplyBatch(recs []ribio.UpdateRecord) (ttf.TTF, error) {
	for i, u := range recs {
		if err := u.Validate(); err != nil {
			r.m.updateErrors.Add(1)
			return ttf.TTF{}, fmt.Errorf("serve: record %d: %w", i, err)
		}
	}
	if r.closed.Load() {
		return ttf.TTF{}, ErrClosed
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if r.closed.Load() {
		return ttf.TTF{}, ErrClosed
	}
	if len(recs) == 0 {
		return ttf.TTF{}, nil
	}
	op := updateOp{recs: recs, done: make(chan ttf.TTF, 1)}
	r.updates <- op
	maxInt64(&r.m.peakPending, int64(len(r.updates)))
	return <-op.done, nil
}

// Announce applies one route announcement: ApplyBatch of one record.
func (r *Runtime) Announce(p ip.Prefix, hop ip.NextHop) (ttf.TTF, error) {
	return r.ApplyBatch([]ribio.UpdateRecord{{Prefix: p, NextHop: hop}})
}

// Withdraw applies one route withdrawal: ApplyBatch of one record.
// Withdrawing an absent prefix is a no-op.
func (r *Runtime) Withdraw(p ip.Prefix) (ttf.TTF, error) {
	return r.ApplyBatch([]ribio.UpdateRecord{{Withdraw: true, Prefix: p}})
}

// maxInt64 raises *a to v if v is larger (CAS loop: submitters race).
func maxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// writer is the single goroutine that owns the onrtc.Updater. It
// coalesces queued ops into batches (up to batchMax), applies them to the
// updater and the sorted mirror, swaps the snapshot and only then
// completes the ops — so a completed op is by construction visible to
// readers.
func (r *Runtime) writer() {
	defer close(r.writerDone)
	for op := range r.updates {
		batch := append(r.ws.batch[:0], op)
	fill:
		for len(batch) < batchMax {
			select {
			case next, ok := <-r.updates:
				if !ok {
					break fill
				}
				batch = append(batch, next)
			default:
				break fill
			}
		}
		r.ws.batch = batch
		r.applyBatch(batch)
	}
}

// applyBatch runs every record of one batch of ops through the updater
// and publishes the resulting snapshot once. Control (rehome) ops
// contribute no route change but force a publication; every publication
// — ctl or not — recuts the partition bounds from the live worker health
// states, so a batch racing a failure re-homes on its own. A batch that
// changed nothing (and carried no ctl op) publishes no snapshot at all.
func (r *Runtime) applyBatch(batch []updateOp) {
	start := time.Now()
	results := r.ws.results[:0]
	r.ws.insLast = r.ws.insLast[:0]
	r.ws.delLast = r.ws.delLast[:0]
	r.ws.hopPatches = r.ws.hopPatches[:0]
	rehome := false
	changed := false
	ops := 0 // records plus ctl ops
	for _, op := range batch {
		if op.ctl {
			rehome = true
			if op.plan != nil {
				r.cutPlan = op.plan
			}
			results = append(results, ttf.TTF{})
			ops++
			continue
		}
		var total ttf.TTF
		for _, u := range op.recs {
			var diff onrtc.Diff
			if u.Withdraw {
				diff = r.upd.Withdraw(u.Prefix)
				r.m.withdraws.Add(1)
			} else {
				diff = r.upd.Announce(u.Prefix, u.NextHop)
				r.m.announces.Add(1)
			}
			// TTF is the paper's cost model over the diff, not a simulated
			// chip's count (DESIGN.md, Known deviations).
			cost := ttf.DefaultCosts().CLUEBound(diff)
			total = total.Add(cost)
			r.m.ttfTrie.add(cost.Trie)
			r.m.ttfTCAM.add(cost.TCAM)
			r.m.ttfDRed.add(cost.DRed)
			r.m.ttf1Lat.record(0, int64(cost.Trie))
			r.m.ttf2Lat.record(0, int64(cost.TCAM))
			r.m.ttf3Lat.record(0, int64(cost.DRed))
			if len(diff.Ops) > 0 {
				changed = true
			}
			r.applyDiffToTable(diff.Ops)
		}
		results = append(results, total)
		ops += len(op.recs)
	}
	r.ws.results = results
	r.m.batches.Add(1)
	r.m.batchOps.Add(int64(ops))
	// Writer-owned peaks: plain store is fine, nobody else raises them.
	if n := int64(ops); n > r.m.peakBatchOps.Load() {
		r.m.peakBatchOps.Store(n)
	}
	if n := int64(len(r.table)); n > r.m.peakRoutes.Load() {
		r.m.peakRoutes.Store(n)
	}
	if !changed && !rehome {
		// The batch made no structural or hop change to the compressed
		// table (withdraw-of-absent, re-announce of an identical route)
		// and requested no recut: publishing would memcpy
		// the whole table and bump the version for a byte-identical
		// snapshot. Complete the ops against the already-current snapshot
		// instead.
		r.m.noopBatches.Add(1)
		r.m.swapNs.add(float64(time.Since(start).Nanoseconds()))
		for i := range batch {
			batch[i].done <- results[i]
		}
		return
	}
	slices.Sort(r.ws.insLast)
	slices.Sort(r.ws.delLast)
	r.publish(r.snap.Load())
	if rehome {
		r.m.rehomes.Add(1)
		// Samples taken under the old cuts must not feed the next recut
		// decision (see worker.resetSketch).
		for _, w := range r.workers {
			w.resetSketch()
		}
	}
	swapNs := time.Since(start).Nanoseconds()
	r.m.swapNs.add(float64(swapNs))
	r.m.swapLat.record(0, swapNs)
	for i := range batch {
		batch[i].done <- results[i]
	}
}

// publish builds and swaps in prev's successor. Three shapes, cheapest
// first:
//
//   - Hop-only batches (no inserts or deletes — the common case under a
//     next-hop churn storm) patch the new hops into prev's arena with
//     atomic stores and publish a snapshot shell sharing the arena and
//     index outright: the table is never copied. Skipped once the arena
//     escaped through Runtime.Snapshot(), whose holders were promised
//     stable data.
//   - Structural batches rebuild the struct-of-arrays slabs in a
//     recycled (or fresh) arena from the writer's sorted mirror, then
//     patch the previous index through the insert/delete cuts when the
//     batch is small enough, rebuilding it otherwise.
//
// After the swap the writer advances the epoch clock, retires prev and
// reclaims whatever retirees every reader has provably moved past.
func (r *Runtime) publish(prev *Snapshot) {
	version := prev.Version + 1
	structural := len(r.ws.insLast) + len(r.ws.delLast)
	var next *Snapshot
	switch {
	case structural == 0 && !prev.ar.escaped.Load():
		for _, p := range r.ws.hopPatches {
			atomic.StoreUint32(&prev.ar.hop[p.pos], p.hop)
		}
		next = prev.clonePatched(version, r.cfg.Workers, r.downMask(), r.cutPlan)
		r.m.inPlacePatches.Add(1)
	default:
		ar := r.takeArena(len(r.table))
		rng, hop := ar.routeSlabs(len(r.table))
		fillSlabs(rng, hop, r.table)
		next = shellOnArena(ar, version, r.cfg.Workers, r.downMask(), r.cutPlan)
		if structural <= stridePatchMax {
			next.index = patchIndexInto(ar, prev.index, rng, r.ws.insLast, r.ws.delLast, len(r.table))
			r.m.indexPatches.Add(1)
		} else {
			next.index = buildIndexInto(ar, rng)
			r.m.indexRebuilds.Add(1)
		}
	}
	next.digest = r.upd.Table().Digest()
	next.ar.refs++
	r.snap.Store(next)
	// Advance strictly after the store: a reader pinning the new epoch is
	// then guaranteed (seq-cst) to load next or later, so prev becomes
	// reclaimable once every active pin exceeds the epoch it was current
	// in.
	epoch := r.ep.advance() - 1
	r.retired = append(r.retired, retiredSnap{snap: prev, epoch: epoch})
	r.reclaim()
}

// takeArena pops a pooled arena able to hold n routes (any pooled arena
// failing that — routeSlabs regrows its slabs in place), or allocates a
// fresh one.
func (r *Runtime) takeArena(n int) *arena {
	for i, a := range r.arenas {
		if a.fits(n) {
			last := len(r.arenas) - 1
			r.arenas[i] = r.arenas[last]
			r.arenas[last] = nil
			r.arenas = r.arenas[:last]
			return a
		}
	}
	if last := len(r.arenas) - 1; last >= 0 {
		a := r.arenas[last]
		r.arenas[last] = nil
		r.arenas = r.arenas[:last]
		return a
	}
	return newArena(n)
}

// reclaim drains the retired-snapshot FIFO up to the first entry some
// reader may still hold. A reclaimed snapshot drops its arena reference;
// an arena with no snapshots left is recycled into the writer pool —
// unless a Snapshot() caller escaped it, in which case the GC owns it.
func (r *Runtime) reclaim() {
	n := 0
	for n < len(r.retired) && r.ep.safeBefore(r.retired[n].epoch) {
		a := r.retired[n].snap.ar
		a.refs--
		// The escaped check must follow the epoch check: a racing
		// Snapshot() caller either pinned an epoch the safeBefore scan saw
		// (deferring this reclaim) or was ordered after the next
		// publication and escaped that snapshot's arena instead.
		if a.refs == 0 && !a.escaped.Load() && len(r.arenas) < arenaPoolMax {
			r.arenas = append(r.arenas, a)
			r.m.arenasRecycled.Add(1)
		}
		n++
	}
	if n > 0 {
		r.retired = append(r.retired[:0], r.retired[n:]...)
	}
	r.retiredLen.Store(int64(len(r.retired)))
	if len(r.retired) > 0 {
		r.oldestEpoch.Store(r.retired[0].epoch)
	} else {
		r.oldestEpoch.Store(0)
	}
}

// applyDiffToTable replays compressed-table diff ops onto the writer's
// sorted mirror. The slice stays sorted in trie inorder (ip.Prefix
// Compare order) throughout, so each op is one binary search plus one
// memmove — O(log M + M) with a tiny constant, versus the O(M) trie walk
// and node-chasing a full re-export would cost per batch. A diff of
// mergeMinOps or more ops — a short prefix announced over a fragmented
// region rewrites thousands of compressed routes at once — is merged in
// one pass instead (mergeDiffIntoTable). Structural changes (real
// inserts and deletes) are recorded in the writer scratch for the
// stride-index patch. The serve tests cross-check the mirror against
// the updater's table after churn.
func (r *Runtime) applyDiffToTable(ops []onrtc.Op) {
	if len(ops) >= mergeMinOps {
		r.mergeDiffIntoTable(ops)
		return
	}
	for _, op := range ops {
		p := op.Route.Prefix
		i := sort.Search(len(r.table), func(i int) bool {
			return r.table[i].Prefix.Compare(p) >= 0
		})
		exact := i < len(r.table) && r.table[i].Prefix == p
		switch op.Kind {
		case onrtc.OpInsert, onrtc.OpModify:
			if exact {
				r.table[i].NextHop = op.Route.NextHop
				// Position i is the patch target if the whole batch turns out
				// hop-only; any insert or delete invalidates the recorded
				// positions and forces the structural publish path.
				r.ws.hopPatches = append(r.ws.hopPatches, hopPatch{pos: int32(i), hop: uint32(op.Route.NextHop)})
			} else {
				r.table = append(r.table, ip.Route{})
				copy(r.table[i+1:], r.table[i:])
				r.table[i] = op.Route
				r.ws.insLast = append(r.ws.insLast, p.Last())
			}
		case onrtc.OpDelete:
			if exact {
				r.table = append(r.table[:i], r.table[i+1:]...)
				r.ws.delLast = append(r.ws.delLast, p.Last())
			}
		}
	}
}

// mergeDiffIntoTable applies ops to the sorted mirror with the same
// effect as applyDiffToTable's op-by-op loop, in one merge pass: the ops
// are stably sorted into table order (ops on one prefix keep their
// order) and the mirror is copied into the spare buffer with each op
// applied at its position, then the buffers swap. Hop patches record
// final positions, which is what the in-place publish needs when the
// diff turns out to be hop-only.
func (r *Runtime) mergeDiffIntoTable(ops []onrtc.Op) {
	sorted := append(r.ws.mergeOps[:0], ops...)
	slices.SortStableFunc(sorted, func(a, b onrtc.Op) int { return a.Route.Prefix.Compare(b.Route.Prefix) })
	r.ws.mergeOps = sorted
	t := r.table
	out := r.ws.spare[:0]
	if cap(out) < len(t)+len(ops) {
		out = make([]ip.Route, 0, cap(t)+len(ops))
	}
	i := 0
	for _, op := range sorted {
		p := op.Route.Prefix
		j := i + sort.Search(len(t)-i, func(k int) bool { return t[i+k].Prefix.Compare(p) >= 0 })
		out = append(out, t[i:j]...)
		i = j
		if i < len(t) && t[i].Prefix == p {
			out = append(out, t[i])
			i++
		}
		// The route at p, if any, is now out's last element — from the
		// table or from an earlier op of this diff on the same prefix.
		last := len(out) - 1
		present := last >= 0 && out[last].Prefix == p
		switch op.Kind {
		case onrtc.OpInsert, onrtc.OpModify:
			if present {
				out[last].NextHop = op.Route.NextHop
				r.ws.hopPatches = append(r.ws.hopPatches, hopPatch{pos: int32(last), hop: uint32(op.Route.NextHop)})
			} else {
				out = append(out, op.Route)
				r.ws.insLast = append(r.ws.insLast, p.Last())
			}
		case onrtc.OpDelete:
			if present {
				out = out[:last]
				r.ws.delLast = append(r.ws.delLast, p.Last())
			}
		}
	}
	out = append(out, t[i:]...)
	r.ws.spare = t[:0]
	r.table = out
}

// downMask snapshots the worker health states into the writer's scratch
// mask (true = out of service). It returns nil when every worker is
// healthy, which keeps the all-healthy snapshotShell path allocation-
// and branch-identical to the pre-failure-handling code.
func (r *Runtime) downMask() []bool {
	if cap(r.ws.down) < len(r.workers) {
		r.ws.down = make([]bool, len(r.workers))
	}
	down := r.ws.down[:len(r.workers)]
	any := false
	for i, w := range r.workers {
		d := !w.healthy()
		down[i] = d
		any = any || d
	}
	if !any {
		return nil
	}
	return down
}

// Close drains and stops the runtime: new calls fail with ErrClosed,
// in-flight lookups and queued updates complete, then the writer and all
// workers exit. Close is idempotent and safe to call concurrently.
func (r *Runtime) Close() {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		// Stop the periodic rebalancer first: a recut mid-close would race
		// the update-channel close below. An in-progress Rebalance holds an
		// inflight token, so the writer (still running) completes it before
		// the drain loop can finish.
		if r.rebalanceStop != nil {
			close(r.rebalanceStop)
			r.rebalanceWG.Wait()
		}
		// All submitters that got past the closed re-check hold an
		// inflight token until their op is answered; once the count
		// drains, nobody can send on the channels we are about to close.
		// (An atomic counter instead of a WaitGroup: Add-from-zero racing
		// Wait is disallowed for WaitGroups, and late callers here bounce
		// off the closed flag rather than joining the wait.)
		for r.inflight.Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
		close(r.updates)
		<-r.writerDone
		for _, w := range r.workers {
			close(w.queue)
		}
		r.workersWG.Wait()
	})
}

// Stats exports a point-in-time snapshot of the runtime's metrics.
func (r *Runtime) Stats() Stats {
	// The arena-footprint reads race writer-side slab regrowth once the
	// snapshot is retired and recycled, so they sit under an epoch pin
	// like any other arena access.
	slot := r.ep.enter(r.pinSeed.Add(1))
	snap := r.snap.Load()
	version := snap.Version
	routes := snap.Len()
	indexBytes := snap.IndexBytes()
	subArrays := snap.SubArrays()
	heapBytes := snap.HeapBytes()
	tableHash := snap.CanonicalHash()
	slot.exit()
	epoch := r.ep.global.Load()
	var lag uint64
	if oldest := r.oldestEpoch.Load(); oldest != 0 && epoch > oldest {
		lag = epoch - oldest
	}
	st := Stats{
		SnapshotVersion:    version,
		Routes:             routes,
		IndexBytes:         indexBytes,
		IndexSubArrays:     subArrays,
		SnapshotHeapBytes:  heapBytes,
		Epoch:              epoch,
		EpochLag:           lag,
		RetiredSnapshots:   int(r.retiredLen.Load()),
		InPlacePatches:     r.m.inPlacePatches.Load(),
		IndexPatches:       r.m.indexPatches.Load(),
		IndexRebuilds:      r.m.indexRebuilds.Load(),
		ArenasRecycled:     r.m.arenasRecycled.Load(),
		Workers:            r.cfg.Workers,
		SnapshotLookups:    r.m.snapshotLookups.Load(),
		Dispatched:         r.m.dispatched.Load(),
		DispatchBatches:    r.m.dispatchBatches.Load(),
		Diverted:           r.m.diverted.Load(),
		OverflowBlocked:    r.m.overflowBlocked.Load(),
		WorkerServed:       make([]int64, len(r.workers)),
		Announces:          r.m.announces.Load(),
		Withdraws:          r.m.withdraws.Load(),
		UpdateErrors:       r.m.updateErrors.Load(),
		Batches:            r.m.batches.Load(),
		NoopBatches:        r.m.noopBatches.Load(),
		BatchOps:           r.m.batchOps.Load(),
		PendingUpdates:     len(r.updates),
		TableHash:          tableHash,
		PeakRoutes:         r.m.peakRoutes.Load(),
		PeakPendingUpdates: r.m.peakPending.Load(),
		PeakBatchOps:       r.m.peakBatchOps.Load(),
		TTFTotals: ttf.TTF{
			Trie: r.m.ttfTrie.load(),
			TCAM: r.m.ttfTCAM.load(),
			DRed: r.m.ttfDRed.load(),
		},
		SwapNs:          r.m.swapNs.load(),
		WorkerHealth:    make([]string, len(r.workers)),
		Rehomes:         r.m.rehomes.Load(),
		EnqueueRetries:  r.m.enqueueRetries.Load(),
		EnqueueTimeouts: r.m.enqueueTimeouts.Load(),
		WorkerPanics:    r.m.workerPanics.Load(),
		Rebalance: RebalanceStats{
			Enabled:             r.cfg.Rebalance.Interval > 0,
			Recuts:              r.m.rebalances.Load(),
			Skips:               r.m.rebalanceSkips.Load(),
			MovedRoutes:         r.m.rebalanceMoved.Load(),
			LastImbalanceBefore: r.m.rebalanceImbBefore.load(),
			LastImbalanceAfter:  r.m.rebalanceImbAfter.load(),
			SketchSamples:       r.m.sketchSamples.Load(),
		},
		Latency: LatencyStats{
			SnapshotLookup:   r.m.lookupLat.summary(),
			DispatchHome:     r.m.dispatchHome.summary(),
			DispatchDiverted: r.m.dispatchDivert.summary(),
			DispatchBatch:    r.m.dispatchBatchLat.summary(),
			TTFTrie:          r.m.ttf1Lat.summary(),
			TTFTCAM:          r.m.ttf2Lat.summary(),
			TTFDRed:          r.m.ttf3Lat.summary(),
			SnapshotSwap:     r.m.swapLat.summary(),
			QueueDepth:       r.m.queueDepth.summary(),
		},
	}
	for i, w := range r.workers {
		st.WorkerServed[i] = w.served.Load()
		state := WorkerState(w.state.Load())
		st.WorkerHealth[i] = state.String()
		if state != WorkerHealthy {
			st.FailedWorkers++
		}
	}
	return st
}
