package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"clue/internal/ttf"
)

// atomicFloat is a float64 accumulator with atomic loads/stores. Only the
// writer goroutine adds to it (load-add-store without CAS is safe under a
// single writer); any goroutine may read it.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) { f.bits.Store(math.Float64bits(f.load() + v)) }
func (f *atomicFloat) set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// metrics is the runtime's live counter set. Lookup-path counters are
// bumped by dispatchers and workers (plain atomic adds); update-path and
// TTF counters are bumped only by the writer goroutine.
type metrics struct {
	snapshotLookups atomic.Int64
	dispatched      atomic.Int64
	dispatchBatches atomic.Int64
	diverted        atomic.Int64
	overflowBlocked atomic.Int64

	rehomes         atomic.Int64
	enqueueRetries  atomic.Int64
	enqueueTimeouts atomic.Int64
	workerPanics    atomic.Int64

	// Rebalancer counters (bumped under rebalanceMu, read anywhere).
	// rebalanceImbBefore/After are last-observed gauges, hence set not
	// add.
	rebalances         atomic.Int64
	rebalanceSkips     atomic.Int64
	rebalanceMoved     atomic.Int64
	sketchSamples      atomic.Int64
	rebalanceImbBefore atomicFloat
	rebalanceImbAfter  atomicFloat

	announces    atomic.Int64
	withdraws    atomic.Int64
	updateErrors atomic.Int64
	batches      atomic.Int64
	noopBatches  atomic.Int64
	batchOps     atomic.Int64

	// Storm high-water marks: the largest compressed table published
	// (route-leak bloat), the deepest update-queue backlog observed at
	// submit time, and the largest writer batch coalesced. peakRoutes
	// and peakBatchOps are writer-owned; peakPending is raced by every
	// submitter, hence the CAS max.
	peakRoutes   atomic.Int64
	peakPending  atomic.Int64
	peakBatchOps atomic.Int64

	// Arena/epoch bookkeeping (writer-owned adds).
	inPlacePatches atomic.Int64
	indexPatches   atomic.Int64
	indexRebuilds  atomic.Int64
	arenasRecycled atomic.Int64

	ttfTrie atomicFloat
	ttfTCAM atomicFloat
	ttfDRed atomicFloat
	swapNs  atomicFloat

	// dispatchTick drives the single-dispatch latency sampling decision;
	// queueTick the enqueue-time queue-depth sampling decision.
	dispatchTick atomic.Int64
	queueTick    atomic.Int64

	// Latency histograms. Dispatch end-to-end latency is sharded by home
	// worker and split by outcome path; queue depth is sharded by the
	// worker whose queue accepted the request. The snapshot-lookup
	// histogram is a single shard — its recorders are already thinned by
	// sampling — and the TTF/swap histograms are writer-owned.
	lookupLat        *latencyHist
	dispatchHome     *latencyHist
	dispatchDivert   *latencyHist
	dispatchBatchLat *latencyHist
	ttf1Lat          *latencyHist
	ttf2Lat          *latencyHist
	ttf3Lat          *latencyHist
	swapLat          *latencyHist
	queueDepth       *latencyHist
}

// initHistograms sizes the latency histograms for a runtime with the
// given worker count. Called once from New, before any recorder runs.
func (m *metrics) initHistograms(workers int) {
	m.lookupLat = newLatencyHist(1)
	m.dispatchHome = newLatencyHist(workers)
	m.dispatchDivert = newLatencyHist(workers)
	m.dispatchBatchLat = newLatencyHist(1)
	m.ttf1Lat = newLatencyHist(1)
	m.ttf2Lat = newLatencyHist(1)
	m.ttf3Lat = newLatencyHist(1)
	m.swapLat = newLatencyHist(1)
	m.queueDepth = newLatencyHist(workers)
}

// LatencyStats bundles the runtime's latency (and queue-depth)
// distributions: the paper's evaluation quantities — per-packet lookup
// delay, the TTF1/TTF2/TTF3 update breakdown — as live percentiles
// instead of totals. All values are nanoseconds except QueueDepth,
// whose "ns" fields are queue entries.
type LatencyStats struct {
	// SnapshotLookup is the sampled RCU read-side lookup latency
	// (Runtime.Lookup; one in lookupSampleMask+1 calls is timed).
	SnapshotLookup LatencySummary `json:"snapshot_lookup"`
	// DispatchHome/DispatchDiverted split sampled single-dispatch
	// end-to-end latency (enqueue to answer) by outcome: served at the
	// home worker, or diverted to another one.
	DispatchHome     LatencySummary `json:"dispatch_home"`
	DispatchDiverted LatencySummary `json:"dispatch_diverted"`
	// DispatchBatch is whole-call DispatchBatch latency (every call).
	DispatchBatch LatencySummary `json:"dispatch_batch"`
	// TTFTrie/TTFTCAM/TTFDRed are the per-op TTF1/TTF2/TTF3
	// distributions; SnapshotSwap the per-publication batch apply+swap
	// wall time.
	TTFTrie      LatencySummary `json:"ttf_trie"`
	TTFTCAM      LatencySummary `json:"ttf_tcam"`
	TTFDRed      LatencySummary `json:"ttf_dred"`
	SnapshotSwap LatencySummary `json:"snapshot_swap"`
	// QueueDepth is the sampled depth of the accepting worker's queue at
	// enqueue time (entries, not nanoseconds).
	QueueDepth LatencySummary `json:"queue_depth"`
}

// DispatchP99Ns returns the worse p99 of the two dispatch outcome paths
// — the single number the chaos harness bounds during kill/recover
// storms.
func (l LatencyStats) DispatchP99Ns() float64 {
	return max(l.DispatchHome.P99, l.DispatchDiverted.P99)
}

// Stats is a point-in-time export of the runtime's metrics, safe to
// serialise (all exported fields, JSON-friendly types).
type Stats struct {
	// SnapshotVersion and Routes describe the currently published
	// snapshot; Workers the partition worker count.
	SnapshotVersion uint64 `json:"snapshot_version"`
	Routes          int    `json:"routes"`
	// Indexed reports whether the published snapshot carries the stride
	// index (false only for tables below the index threshold).
	Indexed bool `json:"indexed"`
	Workers int  `json:"workers"`
	// IndexBytes is the published snapshot's two-level index footprint;
	// IndexSubArrays the number of hot buckets promoted to second-level
	// sub-arrays; SnapshotHeapBytes the snapshot's arena slab footprint
	// (route ranges, next hops and both index levels).
	IndexBytes        int `json:"index_bytes"`
	IndexSubArrays    int `json:"index_sub_arrays"`
	SnapshotHeapBytes int `json:"snapshot_heap_bytes"`
	// Epoch is the reclamation clock; EpochLag how many epochs the oldest
	// retired-but-unreclaimed snapshot trails it (0 = fully reclaimed);
	// RetiredSnapshots the retired list length at export time.
	Epoch            uint64 `json:"epoch"`
	EpochLag         uint64 `json:"epoch_lag"`
	RetiredSnapshots int    `json:"retired_snapshots"`

	// SnapshotLookups counts direct (RCU read-side) lookups, including
	// addresses resolved through LookupBatch; Dispatched counts lookups
	// routed through the partition workers, including addresses inside
	// DispatchBatch calls. DispatchBatches counts the batch calls
	// themselves.
	SnapshotLookups int64 `json:"snapshot_lookups"`
	Dispatched      int64 `json:"dispatched"`
	DispatchBatches int64 `json:"dispatch_batches"`
	// Diverted counts dispatches whose home queue was full and that were
	// redirected to the least-loaded worker; OverflowBlocked counts
	// dispatches that found every eligible queue full and entered the
	// bounded retry loop (each dispatch is counted once, on its first
	// retry — since the bounded-retry change no dispatch ever blocks
	// indefinitely).
	Diverted        int64 `json:"diverted"`
	OverflowBlocked int64 `json:"overflow_blocked"`
	// CacheHits/CacheMisses are always zero: serve has no divert cache.
	// They and CacheHitRate stay only until benchmark/layers.go drops
	// its serve.dispatch.cache_hit_ratio row.
	CacheHits   int64 `json:"-"`
	CacheMisses int64 `json:"-"`
	// WorkerServed is the per-worker served-lookup count.
	WorkerServed []int64 `json:"worker_served"`
	// WorkerHealth is each worker's health state ("healthy", "draining",
	// "failed"); FailedWorkers counts the ones not currently healthy —
	// non-zero means the runtime is in degraded mode.
	WorkerHealth  []string `json:"worker_health"`
	FailedWorkers int      `json:"failed_workers"`
	// Rehomes counts published snapshots that recut the partition bounds
	// after a worker health change; EnqueueRetries the backoff retries on
	// the dispatch path, EnqueueTimeouts the dispatches whose whole
	// retry/timeout budget expired; WorkerPanics the panics recovered
	// inside worker goroutines.
	Rehomes         int64 `json:"rehomes"`
	EnqueueRetries  int64 `json:"enqueue_retries"`
	EnqueueTimeouts int64 `json:"enqueue_timeouts"`
	WorkerPanics    int64 `json:"worker_panics"`
	// Rebalance describes the load-aware repartitioning loop (see
	// RebalanceStats).
	Rebalance RebalanceStats `json:"rebalance"`

	// Announces/Withdraws count applied update records; UpdateErrors the
	// ApplyBatch calls rejected by record validation (nothing of them is
	// applied). Batches/BatchOps describe writer batching: BatchOps counts
	// the records (plus control ops) each publication carried, so
	// BatchOps/Batches is the mean batch size. NoopBatches counts batches
	// that changed nothing (withdraw-of-absent, identical re-announce) and
	// therefore published no new snapshot. PendingUpdates is the
	// update-queue backlog (queued calls) at export time.
	Announces      int64 `json:"announces"`
	Withdraws      int64 `json:"withdraws"`
	UpdateErrors   int64 `json:"update_errors"`
	Batches        int64 `json:"batches"`
	NoopBatches    int64 `json:"noop_batches"`
	BatchOps       int64 `json:"batch_ops"`
	PendingUpdates int   `json:"pending_updates"`
	// TableHash is the published snapshot's canonical-table digest
	// (Snapshot.CanonicalHash): two runtimes serving the same routes
	// report the same hash, which is how the scenario lab and feed
	// replicas prove convergence after a storm.
	TableHash uint64 `json:"table_hash"`
	// PeakRoutes/PeakPendingUpdates/PeakBatchOps are storm high-water
	// marks over the runtime's life: the largest table published (a
	// route-leak bloats this far above the steady state), the deepest
	// update backlog seen at submit time, and the largest writer batch.
	PeakRoutes         int64 `json:"peak_routes"`
	PeakPendingUpdates int64 `json:"peak_pending_updates"`
	PeakBatchOps       int64 `json:"peak_batch_ops"`
	// InPlacePatches counts publications that patched next hops into the
	// live arena instead of copying the table; IndexPatches/IndexRebuilds
	// split structural publications by whether the two-level index was
	// patched from its predecessor or rebuilt from the table;
	// ArenasRecycled counts retired arenas returned to the writer's pool
	// by epoch reclamation.
	InPlacePatches int64 `json:"in_place_patches"`
	IndexPatches   int64 `json:"index_patches"`
	IndexRebuilds  int64 `json:"index_rebuilds"`
	ArenasRecycled int64 `json:"arenas_recycled"`

	// TTFTotals accumulates the paper's per-update Time-To-Fresh
	// breakdown (ns) across all applied ops; SwapNs the wall time spent
	// building and publishing snapshots.
	TTFTotals ttf.TTF `json:"ttf_totals_ns"`
	SwapNs    float64 `json:"swap_ns"`

	// Latency carries the distributional view of the same pipeline:
	// p50/p90/p99/max summaries (with sparse power-of-two buckets) for
	// snapshot lookups, dispatch outcomes, TTF1/2/3 and snapshot swaps,
	// plus sampled queue depths.
	Latency LatencyStats `json:"latency"`
}

// DivertRate returns diverted/dispatched.
func (s Stats) DivertRate() float64 {
	if s.Dispatched == 0 {
		return 0
	}
	return float64(s.Diverted) / float64(s.Dispatched)
}

// CacheHitRate is always zero (see CacheHits).
func (s Stats) CacheHitRate() float64 { return 0 }

// MeanBatch returns the mean ops per writer batch.
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchOps) / float64(s.Batches)
}

// MeanTTF returns the mean per-update TTF breakdown.
func (s Stats) MeanTTF() ttf.TTF {
	n := s.Announces + s.Withdraws
	if n == 0 {
		return ttf.TTF{}
	}
	return s.TTFTotals.Scale(1 / float64(n))
}

// WritePrometheus renders the stats in the Prometheus text exposition
// format (counters and gauges only — no client library dependency).
func (s Stats) WritePrometheus(w io.Writer) error {
	var err error
	emit := func(name, typ, help string, v float64) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	emit("clue_serve_snapshot_version", "gauge", "Version of the published lookup snapshot.", float64(s.SnapshotVersion))
	emit("clue_serve_snapshot_routes", "gauge", "Compressed routes in the published snapshot.", float64(s.Routes))
	emit("clue_serve_workers", "gauge", "Partition worker goroutines.", float64(s.Workers))
	emit("clue_serve_index_bytes", "gauge", "Two-level stride index footprint of the published snapshot.", float64(s.IndexBytes))
	emit("clue_serve_index_sub_arrays", "gauge", "Hot buckets promoted to second-level sub-arrays.", float64(s.IndexSubArrays))
	emit("clue_serve_snapshot_heap_bytes", "gauge", "Arena slab footprint of the published snapshot.", float64(s.SnapshotHeapBytes))
	emit("clue_serve_epoch", "gauge", "Reclamation epoch clock.", float64(s.Epoch))
	emit("clue_serve_epoch_lag", "gauge", "Epochs the oldest unreclaimed snapshot trails the clock.", float64(s.EpochLag))
	emit("clue_serve_retired_snapshots", "gauge", "Snapshots retired and awaiting epoch reclamation.", float64(s.RetiredSnapshots))
	emit("clue_serve_snapshot_lookups_total", "counter", "Direct RCU snapshot lookups.", float64(s.SnapshotLookups))
	emit("clue_serve_dispatched_total", "counter", "Lookups dispatched to partition workers.", float64(s.Dispatched))
	emit("clue_serve_dispatch_batches_total", "counter", "DispatchBatch calls served.", float64(s.DispatchBatches))
	emit("clue_serve_diverted_total", "counter", "Dispatches diverted off a full home queue.", float64(s.Diverted))
	emit("clue_serve_overflow_blocked_total", "counter", "Dispatches that found every eligible queue full and entered the bounded retry loop (counted once, on the first retry).", float64(s.OverflowBlocked))
	emit("clue_serve_failed_workers", "gauge", "Workers currently draining or failed (non-zero = degraded mode).", float64(s.FailedWorkers))
	emit("clue_serve_rehomes_total", "counter", "Snapshots published with recut partition bounds.", float64(s.Rehomes))
	emit("clue_serve_enqueue_retries_total", "counter", "Dispatch enqueue backoff retries.", float64(s.EnqueueRetries))
	emit("clue_serve_enqueue_timeouts_total", "counter", "Dispatches whose enqueue retry/timeout budget expired.", float64(s.EnqueueTimeouts))
	emit("clue_serve_worker_panics_total", "counter", "Panics recovered inside worker goroutines.", float64(s.WorkerPanics))
	emit("clue_serve_rebalance_recuts_total", "counter", "Weighted recuts published by the rebalancer.", float64(s.Rebalance.Recuts))
	emit("clue_serve_rebalance_skips_total", "counter", "Rebalance passes that published nothing (hysteresis, no signal, degraded).", float64(s.Rebalance.Skips))
	emit("clue_serve_rebalance_moved_routes_total", "counter", "Routes re-homed by weighted recuts.", float64(s.Rebalance.MovedRoutes))
	emit("clue_serve_rebalance_sketch_samples_total", "counter", "Traffic-sketch samples drained by the rebalancer.", float64(s.Rebalance.SketchSamples))
	emit("clue_serve_rebalance_imbalance_before", "gauge", "Traffic imbalance (max partition weight / mean) at the last rebalance pass, before the carve.", s.Rebalance.LastImbalanceBefore)
	emit("clue_serve_rebalance_imbalance_after", "gauge", "Projected traffic imbalance after the last published recut.", s.Rebalance.LastImbalanceAfter)
	emit("clue_serve_announces_total", "counter", "Announce records applied.", float64(s.Announces))
	emit("clue_serve_withdraws_total", "counter", "Withdraw records applied.", float64(s.Withdraws))
	emit("clue_serve_update_errors_total", "counter", "Update calls rejected by record validation.", float64(s.UpdateErrors))
	emit("clue_serve_update_batches_total", "counter", "Writer batches applied.", float64(s.Batches))
	emit("clue_serve_update_noop_batches_total", "counter", "Writer batches that changed nothing and published no snapshot.", float64(s.NoopBatches))
	emit("clue_serve_update_batch_ops_total", "counter", "Update records and control ops across all batches.", float64(s.BatchOps))
	emit("clue_serve_update_pending", "gauge", "Update ops queued and not yet applied.", float64(s.PendingUpdates))
	emit("clue_serve_snapshot_routes_peak", "gauge", "Largest compressed table ever published (route-leak bloat high-water mark).", float64(s.PeakRoutes))
	emit("clue_serve_update_pending_peak", "gauge", "Deepest update-queue backlog observed at submit time.", float64(s.PeakPendingUpdates))
	emit("clue_serve_update_batch_ops_peak", "gauge", "Largest writer batch coalesced from the update queue.", float64(s.PeakBatchOps))
	emit("clue_serve_in_place_patches_total", "counter", "Publications that patched next hops into the live arena without copying the table.", float64(s.InPlacePatches))
	emit("clue_serve_index_patches_total", "counter", "Structural publications whose index was patched from its predecessor.", float64(s.IndexPatches))
	emit("clue_serve_index_rebuilds_total", "counter", "Structural publications whose index was rebuilt from the table.", float64(s.IndexRebuilds))
	emit("clue_serve_arenas_recycled_total", "counter", "Retired arenas returned to the writer pool by epoch reclamation.", float64(s.ArenasRecycled))
	emit("clue_serve_ttf_trie_ns_total", "counter", "TTF1 (control-plane trie) nanoseconds.", s.TTFTotals.Trie)
	emit("clue_serve_ttf_tcam_ns_total", "counter", "TTF2 (TCAM maintenance, the disjoint-table model bound) nanoseconds.", s.TTFTotals.TCAM)
	emit("clue_serve_ttf_dred_ns_total", "counter", "TTF3 (redundancy maintenance) nanoseconds.", s.TTFTotals.DRed)
	emit("clue_serve_snapshot_swap_ns_total", "counter", "Wall time building and publishing snapshots.", s.SwapNs)
	if err != nil {
		return err
	}
	for i, v := range s.WorkerServed {
		if _, err = fmt.Fprintf(w, "clue_serve_worker_served_total{worker=\"%d\"} %d\n", i, v); err != nil {
			return err
		}
	}
	for i, h := range s.WorkerHealth {
		healthy := 0
		if h == WorkerHealthy.String() {
			healthy = 1
		}
		if _, err = fmt.Fprintf(w, "clue_serve_worker_healthy{worker=\"%d\",state=\"%s\"} %d\n", i, h, healthy); err != nil {
			return err
		}
	}
	// The 64-bit digest does not survive a float64 gauge, so it rides in
	// a label (info-style metric): converged replicas expose identical
	// hash labels.
	if _, err = fmt.Fprintf(w, "# HELP clue_serve_table_hash Canonical compressed-table digest of the published snapshot (in the hash label).\n# TYPE clue_serve_table_hash gauge\nclue_serve_table_hash{hash=\"%016x\"} 1\n", s.TableHash); err != nil {
		return err
	}
	for _, hs := range []struct {
		name, help string
		sum        LatencySummary
	}{
		{"clue_serve_snapshot_lookup_latency_ns", "Sampled RCU snapshot lookup latency.", s.Latency.SnapshotLookup},
		{"clue_serve_dispatch_home_latency_ns", "Sampled end-to-end latency of dispatches served at their home worker.", s.Latency.DispatchHome},
		{"clue_serve_dispatch_diverted_latency_ns", "Sampled end-to-end latency of dispatches diverted off their home worker.", s.Latency.DispatchDiverted},
		{"clue_serve_dispatch_batch_latency_ns", "Whole-call DispatchBatch latency.", s.Latency.DispatchBatch},
		{"clue_serve_ttf_trie_latency_ns", "Per-op TTF1 (control-plane trie) distribution.", s.Latency.TTFTrie},
		{"clue_serve_ttf_tcam_latency_ns", "Per-op TTF2 (TCAM maintenance) distribution.", s.Latency.TTFTCAM},
		{"clue_serve_ttf_dred_latency_ns", "Per-op TTF3 (redundancy maintenance) distribution.", s.Latency.TTFDRed},
		{"clue_serve_snapshot_swap_latency_ns", "Per-publication batch apply and snapshot swap wall time.", s.Latency.SnapshotSwap},
		{"clue_serve_queue_depth", "Sampled worker queue depth at enqueue time (entries).", s.Latency.QueueDepth},
	} {
		if err = writePrometheusHistogram(w, hs.name, hs.help, hs.sum); err != nil {
			return err
		}
	}
	return nil
}

// writePrometheusHistogram renders one merged latency histogram in the
// text exposition format: cumulative le buckets over the populated
// power-of-two bounds, then the conventional _sum and _count series.
func writePrometheusHistogram(w io.Writer, name, help string, s LatencySummary) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	cum := uint64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b.Le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
		name, s.Count, name, s.Sum, name, s.Count)
	return err
}
