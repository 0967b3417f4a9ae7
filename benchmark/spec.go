package main

import "time"

// metricSpec declares one metric: its unit, which direction is better and
// — for end-to-end metrics — the share of the baseline by which it may
// worsen before -compare (and the driver reading BENCHMARK.json) calls it
// a regression. BENCHMARK.json lists exactly these; main_test.go holds
// the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the numbers a user of the system sees. The driver wants
// every one of them from every workload, so every workload has readers and
// an update stream; where the stream runs is the workload's choice (spec
// below).
//
// Each bound is three times the widest spread ten seeds showed for that
// metric on any workload (README, "End-to-end metrics"), rounded up to the
// next 5 % and capped at the 25 % the driver allows: a third of the bound
// is the steadiness the driver asks a benchmark to show.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"lookups_per_s", "1/s", "higher", 0.25},
	{"lookup_p50_us", "us", "lower", 0.20},
	{"lookup_p90_us", "us", "lower", 0.25},
	{"cpu_s_per_mlookup", "s", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"route_visible_p50_ms", "ms", "lower", 0.25},
	{"route_visible_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// informational names the rows that restate the load generator rather than
// measure the system. They are reported because the driver takes one metric
// set for all workloads; -compare prints them but passes no verdict.
var informational = map[[2]string]string{
	{"feed_paced", "updates_per_s"}:            "the offered rate, unless the pipeline falls behind",
	{"feed_saturated", "route_visible_p50_ms"}: "queueing delay: batches in flight ÷ updates_per_s",
	{"feed_saturated", "route_visible_p95_ms"}: "queueing delay: batches in flight ÷ updates_per_s",
}

// perLayer are single-layer numbers from the traced pass, prefixed by the
// module they belong to. They carry no bound: they explain an end-to-end
// change, they do not gate one.
var perLayer = []metricSpec{
	// cmd/clue-serve: the HTTP/JSON surface.
	{"cmd.clue-serve.self_us_per_batch", "us", "lower", 0},
	{"cmd.clue-serve.single_get_us", "us", "lower", 0},
	{"cmd.clue-serve.bytes_per_lookup", "bytes", "lower", 0},
	{"cmd.clue-serve.child_cpu_s_per_mlookup", "s", "lower", 0},
	// internal/ip: address parse and format, which the HTTP surface does per address.
	{"ip.parse_ns_per_addr", "ns", "lower", 0},
	{"ip.format_ns_per_addr", "ns", "lower", 0},
	// internal/serve, dispatch: queue hop, completion signal, cache probe, sampling.
	{"serve.dispatch.ns_per_lookup_single", "ns", "lower", 0},
	{"serve.dispatch.ns_per_lookup_batch256", "ns", "lower", 0},
	{"serve.dispatch.ns_per_lookup_batch8192", "ns", "lower", 0},
	{"serve.dispatch.self_ns_single", "ns", "lower", 0},
	{"serve.dispatch.over_lookup_ratio_single", "ratio", "lower", 0},
	{"serve.dispatch.over_lookup_ratio_batch", "ratio", "lower", 0},
	{"serve.dispatch.allocs_per_lookup", "count", "lower", 0},
	{"serve.dispatch.divert_ratio", "ratio", "lower", 0},
	{"serve.dispatch.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.dispatch.overflow_blocked", "count", "lower", 0},
	{"serve.dispatch.enqueue_retries", "count", "lower", 0},
	{"serve.dispatch.queue_depth_p99", "count", "lower", 0},
	{"serve.dispatch.home_p99_ns", "ns", "lower", 0},
	// internal/serve, snapshot: the index and the slabs.
	{"serve.snapshot.lookup_ns_hot", "ns", "lower", 0},
	{"serve.snapshot.lookup_ns_cold", "ns", "lower", 0},
	{"serve.snapshot.lookup_binary_ns", "ns", "lower", 0},
	{"serve.snapshot.lookup_batch_ns_per_addr_256", "ns", "lower", 0},
	{"serve.snapshot.lookup_batch_ns_per_addr_8192", "ns", "lower", 0},
	{"serve.snapshot.index_bytes", "bytes", "lower", 0},
	{"serve.snapshot.heap_bytes", "bytes", "lower", 0},
	{"serve.snapshot.sub_arrays", "count", "lower", 0},
	{"serve.snapshot.bytes_per_route", "bytes", "lower", 0},
	// The write stack, innermost first.
	{"onrtc.updater.apply_us_p50", "us", "lower", 0},
	{"core.system.self_us_p50", "us", "lower", 0},
	{"serve.writer.self_us_p50", "us", "lower", 0},
	{"serve.writer.announce_us_p99", "us", "lower", 0},
	{"serve.writer.updates_per_s_serial", "1/s", "higher", 0},
	{"serve.writer.bytes_per_update", "bytes", "lower", 0},
	{"serve.writer.allocs_per_update", "count", "lower", 0},
	{"serve.writer.mean_batch_ops", "count", "higher", 0},
	{"serve.writer.noop_batches", "count", "lower", 0},
	{"serve.writer.in_place_patch_ratio", "ratio", "higher", 0},
	{"serve.writer.index_rebuilds", "count", "lower", 0},
	{"serve.writer.swap_us_mean", "us", "lower", 0},
	{"serve.writer.ttf_model_mean", "model-ns", "lower", 0},
	{"serve.writer.epoch_lag_max", "count", "lower", 0},
	{"serve.writer.arenas_recycled_ratio", "ratio", "higher", 0},
	{"serve.writer.peak_pending", "count", "lower", 0},
	// internal/feed: wire, collector, follower.
	{"feed.wire.encode_ns_per_update", "ns", "lower", 0},
	{"feed.wire.decode_ns_per_update", "ns", "lower", 0},
	{"feed.wire.bytes_per_update", "bytes", "lower", 0},
	{"feed.collector.apply_us_p50", "us", "lower", 0},
	{"feed.collector.apply_us_p99", "us", "lower", 0},
	{"feed.collector.hash_ms", "ms", "lower", 0},
	{"feed.ack_p50_ms", "ms", "lower", 0},
	{"feed.self_us_per_update", "us", "lower", 0},
	{"feed.bootstrap_s", "s", "lower", 0},
	{"feed.follower.lag_max_batches", "count", "lower", 0},
	{"feed.follower.reconnects", "count", "lower", 0},
	{"feed.follower.snapshot_loads", "count", "lower", 0},
	{"feed.follower.hash_mismatches", "count", "lower", 0},
	{"feed.delivered_ratio", "ratio", "higher", 0},
	// The benchmark itself.
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.verified_ratio", "ratio", "higher", 0},
	{"loadgen.failed_ops_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
}

// readKind is the call a workload's readers make.
type readKind int

const (
	readHTTPBatch readKind = iota // POST /lookup/batch
	readSingle                    // Runtime.Dispatch
	readBatch                     // Runtime.DispatchBatch
)

// topoKind is how a workload stands the system up.
type topoKind int

const (
	topoHTTP topoKind = iota
	topoInproc
	topoFeed
)

// workloadSpec is one workload. Names are fixed: later issues cite them.
type workloadSpec struct {
	Name string
	Why  string

	topo      topoKind
	big       bool // the ~1 M-route table instead of the 120 K one
	cold      bool // addresses uniform over routes instead of Zipf(1.2)
	read      readKind
	batch     int  // addresses per reader call
	oneReader bool // one reader instead of C

	// The update stream: upBatch records per batch, either paced (upRate
	// batches per second, open loop) or closed loop with upDepth batches in
	// flight. With upAfter it runs alone once the readers have stopped,
	// instead of beside them.
	upBatch int
	upRate  float64
	upDepth int
	upAfter bool
}

// Update streams. The three read-side workloads read a table nobody is
// writing — they are the bypass workloads of every writer or feed change,
// on which the prediction is "no change" — and then, readers stopped, send
// single announces and withdraws one at a time, the way /announce and
// Runtime.Announce take them: with one update in flight the latency to
// visible is the writer's own and the rate is its reciprocal, neither set
// by the generator. The feed workloads write beside a reader, which is the
// paper's claim (update without interrupting lookup) under test. The paced
// feed runs at a fifth of what the saturated feed sustains on the
// reference box (~1000 updates/s): at the 400/s first tried, the hash the
// collector computes under its lock every 16 batches queued enough batches
// behind it that the tail measured the backlog, not the pipeline. The
// saturated feed keeps an eighth of the replay window in flight: any depth
// that never lets the follower run dry gives the same rate, a constant one
// makes the queueing delay constant too, and a shallow one fills within
// the warm-up and drains in about a second.
const (
	feedBatch      = 8              // clue-collector's shipped -batch
	pacedFeedRate  = 24             // feed batches per second (192 updates/s): a whole number per half-second slice
	saturatedDepth = feedWindow / 8 // feed batches in flight
)

var workloads = []workloadSpec{
	{
		Name: "http_batch",
		Why:  "the client-of-clue-serve view: HTTP/JSON and ip parse/format do nearly all the work, so a dispatch or index change must show nothing here and a codec change shows only here",
		topo: topoHTTP, read: readHTTPBatch, batch: 256, upBatch: 1, upDepth: 1, upAfter: true,
	},
	{
		Name: "dispatch_single",
		Why:  "one queue hop and one completion signal per 15 ns lookup: the queue, done-channel, cache-probe and sampling path does nearly all the work, the index almost none",
		topo: topoInproc, read: readSingle, batch: 1, upBatch: 1, upDepth: 1, upAfter: true,
	},
	{
		Name: "dispatch_batch_cold",
		Why:  "1 M routes, 8192-address batches uniform over routes: queue cost is amortised away and the working set exceeds the CPU cache, so index layout and slab footprint do the work",
		topo: topoInproc, big: true, cold: true, read: readBatch, batch: 8192, upBatch: 1, upDepth: 1, upAfter: true,
	},
	{
		Name: "feed_paced",
		Why:  "collector to replica at 192 updates/s, a fifth of capacity, beside a reader: route-visible latency of the pipeline itself, and whether a read-side gain was bought with a heavier publish",
		topo: topoFeed, read: readBatch, batch: 256, oneReader: true, upBatch: feedBatch, upRate: pacedFeedRate,
	},
	{
		Name: "feed_saturated",
		Why:  "the same pipeline driven closed-loop to half the replay window: sustained updates/s through collector, wire, follower, writer and publish with a reader competing for the cores",
		topo: topoFeed, read: readBatch, batch: 256, oneReader: true, upBatch: feedBatch, upDepth: saturatedDepth,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scale sizes a run. fullScale is what every run of the command uses; the
// tests run the same code on a tiny one.
type scale struct {
	routes, bigRoutes int
	zipfPool          int // addresses in a Zipf pool
	coldPool          int // addresses in the cold pool
	warm              time.Duration
	slices            int           // the measured window is cut into this many
	setups            int           // set-ups timed per run; setup_s is their median
	probeMin          time.Duration // each per-layer timing loop runs at least this long
	replays           int           // inputs replayed through the read stack
	writeOps          int           // updates replayed through the write stack
}

var fullScale = scale{
	routes: 120_000, bigRoutes: 1_000_000,
	zipfPool: 1 << 16, coldPool: 1 << 22,
	warm: 1500 * time.Millisecond, slices: 20, setups: 3,
	probeMin: 200 * time.Millisecond, replays: 300, writeOps: 1024,
}
