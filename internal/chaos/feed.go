package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clue/internal/feed"
	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

// FeedConfig parameterises one replication chaos run. Zero values take
// defaults sized so the run finishes in a few seconds.
type FeedConfig struct {
	// Seed drives the FIB, the update trace and the fault schedule.
	Seed int64
	// Routes is the base FIB size (default 3000).
	Routes int
	// Updates is the update-trace length (default 1200).
	Updates int
	// BatchSize is how many updates the collector groups per batch
	// (default 4).
	BatchSize int
	// Window is the collector's replay window in batches (default 16
	// — small, so the long link cut is guaranteed to overrun it).
	Window int
	// HashEvery is the collector's hash-frame cadence (default 8).
	HashEvery int
	// Workers is each follower runtime's partition worker count
	// (default 2).
	Workers int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (c FeedConfig) withDefaults() FeedConfig {
	if c.Routes == 0 {
		c.Routes = 3000
	}
	if c.Updates == 0 {
		c.Updates = 1200
	}
	if c.BatchSize == 0 {
		c.BatchSize = 4
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.HashEvery == 0 {
		c.HashEvery = 8
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	return c
}

// FeedReport is the outcome of a replication chaos run. A run only
// counts as passed when RunFeed also returned a nil error.
type FeedReport struct {
	Seed    int64  `json:"seed"`
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`

	// Injected faults.
	LinkCuts          int `json:"link_cuts"`
	Stalls            int `json:"stalls"`
	CollectorRestarts int `json:"collector_restarts"`

	// Summed follower recovery behaviour. Resumes and SnapshotLoads
	// together prove both recovery paths ran: the brief cut must
	// resume, the over-window cut must re-snapshot.
	Resumes        uint64 `json:"resumes"`
	SnapshotLoads  uint64 `json:"snapshot_loads"`
	Reconnects     uint64 `json:"reconnects"`
	HashChecks     uint64 `json:"hash_checks"`
	HashMismatches uint64 `json:"hash_mismatches"`
	// MaxLag is the worst follower lag observed while a replica's
	// apply pipeline was stalled.
	MaxLag uint64 `json:"max_lag"`

	// ConvergedRoutes is the canonical compressed table size every
	// replica agreed on at the end.
	ConvergedRoutes int `json:"converged_routes"`

	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`

	Followers []feed.FollowerStats `json:"followers"`
	Collector feed.CollectorStats  `json:"collector"`
}

// gatedApplier wraps an Applier with a closable gate so the harness
// can stall a follower's apply pipeline without touching its
// connection — the replication analog of a wedged writer.
type gatedApplier struct {
	inner feed.Applier
	mu    sync.Mutex
	hold  chan struct{}
}

func (g *gatedApplier) gate() {
	g.mu.Lock()
	if g.hold == nil {
		g.hold = make(chan struct{})
	}
	g.mu.Unlock()
}

func (g *gatedApplier) release() {
	g.mu.Lock()
	if g.hold != nil {
		close(g.hold)
		g.hold = nil
	}
	g.mu.Unlock()
}

func (g *gatedApplier) wait() {
	g.mu.Lock()
	h := g.hold
	g.mu.Unlock()
	if h != nil {
		<-h
	}
}

func (g *gatedApplier) Reset(routes []ip.Route) error {
	g.wait()
	return g.inner.Reset(routes)
}

func (g *gatedApplier) Announce(p ip.Prefix, hop ip.NextHop) error {
	g.wait()
	return g.inner.Announce(p, hop)
}

func (g *gatedApplier) Withdraw(p ip.Prefix) error {
	g.wait()
	return g.inner.Withdraw(p)
}

func (g *gatedApplier) CanonicalRoutes() []ip.Route { return g.inner.CanonicalRoutes() }

// RunFeed executes one replication chaos scenario: a collector streams
// a seeded update trace to two runtime-backed followers while the
// harness cuts links (briefly on one replica, beyond the replay window
// on the other), stalls a replica's apply pipeline and restarts the
// collector mid-stream with a state handoff. The returned error is
// non-nil whenever any invariant broke: the replicas did not
// reconverge to the collector's canonical compressed table, a recovery
// path that must have run did not, a hash check failed, or goroutines
// leaked.
func RunFeed(cfg FeedConfig) (FeedReport, error) {
	cfg = cfg.withDefaults()
	rep := FeedReport{Seed: cfg.Seed, GoroutinesBefore: runtime.NumGoroutine()}
	rng := rand.New(rand.NewSource(cfg.Seed))

	fib, err := fibgen.Generate(fibgen.Config{Seed: cfg.Seed, Routes: cfg.Routes})
	if err != nil {
		return rep, err
	}
	gen, err := tracegen.NewUpdateGen(fib, tracegen.UpdateConfig{Seed: cfg.Seed, Messages: cfg.Updates})
	if err != nil {
		return rep, err
	}
	recs := tracegen.Records(gen.NextN(cfg.Updates))
	split := func() [][]int {
		var out [][]int
		for i := 0; i < len(recs); i += cfg.BatchSize {
			out = append(out, []int{i, min(i+cfg.BatchSize, len(recs))})
		}
		return out
	}
	spans := split()
	nb := len(spans)

	// The fault schedule, in batch counts per phase. The driver paces
	// the storm on follower progress at phase boundaries — a "brief"
	// cut is brief relative to applied batches, not wall time — with
	// seeded jitter keeping runs seed-distinct.
	warm := nb/5 + rng.Intn(nb/20+1)     // both streaming, then: brief cut on A
	briefGap := 3 + rng.Intn(3)          // batches A misses; well under the window
	longGap := cfg.Window + 6 + rng.Intn(4) // batches B misses; over the window
	stallSpan := nb/10 + rng.Intn(nb/20+1)  // batches applied while A is gated
	if warm+briefGap+longGap+stallSpan+2 >= nb {
		return rep, fmt.Errorf("chaos: fault schedule (%d batches) does not fit the %d-batch trace",
			warm+briefGap+longGap+stallSpan+2, nb)
	}
	restart := nb - (nb-warm-briefGap-longGap-stallSpan)/2 // collector handoff mid-remainder

	mkCollector := func(base []ip.Route, startSeq uint64) (*feed.Collector, error) {
		c, err := feed.NewCollector(feed.CollectorConfig{
			BaseRoutes: base,
			StartSeq:   startSeq,
			Window:     cfg.Window,
			HashEvery:  cfg.HashEvery,
			Logf: func(format string, args ...any) {
				logf(cfg.Log, format, args...)
			},
		})
		if err != nil {
			return nil, err
		}
		if _, err := c.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		return c, nil
	}
	coll, err := mkCollector(fib.Routes(), 0)
	if err != nil {
		return rep, err
	}
	defer func() { coll.Close() }()

	var addr atomic.Value
	addr.Store(coll.Addr().String())
	// bDown simulates a dead link for follower B: dials fail while set,
	// so the follower sits in backoff rather than instantly healing.
	var bDown atomic.Bool
	dialVia := func(down *atomic.Bool) func() (net.Conn, error) {
		return func() (net.Conn, error) {
			if down != nil && down.Load() {
				return nil, errors.New("chaos: link down")
			}
			return net.DialTimeout("tcp", addr.Load().(string), time.Second)
		}
	}

	appA := feed.NewRuntimeApplier(serve.Config{Workers: cfg.Workers})
	appB := feed.NewRuntimeApplier(serve.Config{Workers: cfg.Workers})
	defer appA.Close()
	defer appB.Close()
	gateA := &gatedApplier{inner: appA}
	defer gateA.release()

	mkFollower := func(app feed.Applier, down *atomic.Bool, name string) (*feed.Follower, error) {
		return feed.NewFollower(feed.FollowerConfig{
			Dial:       dialVia(down),
			Applier:    app,
			BackoffMin: time.Millisecond,
			BackoffMax: 50 * time.Millisecond,
			Logf: func(format string, args ...any) {
				logf(cfg.Log, name+": "+format, args...)
			},
		})
	}
	fA, err := mkFollower(gateA, nil, "follower-a")
	if err != nil {
		return rep, err
	}
	defer fA.Close()
	fB, err := mkFollower(appB, &bDown, "follower-b")
	if err != nil {
		return rep, err
	}
	defer fB.Close()

	const phaseTimeout = 30 * time.Second
	var last uint64
	next := 0
	// applyN pushes n batches, pacing each on the given followers so a
	// phase's fault lands at a known point in every replica's stream.
	applyN := func(n int, paceOn ...*feed.Follower) error {
		for ; n > 0 && next < nb; n-- {
			span := spans[next]
			seq, err := coll.Apply(recs[span[0]:span[1]])
			if err != nil {
				return fmt.Errorf("chaos: batch %d: %w", next, err)
			}
			last = seq
			next++
			for _, f := range paceOn {
				if err := f.WaitSeq(seq, phaseTimeout); err != nil {
					return fmt.Errorf("chaos: batch %d: %w", next-1, err)
				}
			}
		}
		return nil
	}

	// Phase 1: warm up with both replicas in lockstep.
	if err := applyN(warm, fA, fB); err != nil {
		return rep, err
	}

	// Phase 2: brief link cut on A — it misses a few batches, well
	// inside the replay window, and must resume without a snapshot.
	logf(cfg.Log, "chaos: batch %d: brief link cut on follower A", next)
	fA.BreakConn()
	rep.LinkCuts++
	if err := applyN(briefGap, fB); err != nil {
		return rep, err
	}
	if err := fA.WaitSeq(last, phaseTimeout); err != nil {
		return rep, fmt.Errorf("chaos: follower A after brief cut: %w", err)
	}

	// Phase 3: long link cut on B — the link stays down while more
	// batches than the window holds flow past, so its resume point is
	// trimmed and healing must fall back to a fresh snapshot.
	logf(cfg.Log, "chaos: batch %d: long link cut on follower B (window %d)", next, cfg.Window)
	bDown.Store(true)
	fB.BreakConn()
	rep.LinkCuts++
	if err := applyN(longGap, fA); err != nil {
		return rep, err
	}
	logf(cfg.Log, "chaos: batch %d: healing follower B's link", next)
	bDown.Store(false)
	if err := fB.WaitSeq(last, phaseTimeout); err != nil {
		return rep, fmt.Errorf("chaos: follower B after over-window cut: %w", err)
	}

	// Phase 4: stall A's apply pipeline (connection intact); lag grows
	// while B stays current, then the release must drain it.
	logf(cfg.Log, "chaos: batch %d: stalling follower A's apply pipeline", next)
	gateA.gate()
	rep.Stalls++
	if err := applyN(stallSpan, fB); err != nil {
		gateA.release()
		return rep, err
	}
	if lag := fA.Stats().Lag; lag > rep.MaxLag {
		rep.MaxLag = lag
	}
	logf(cfg.Log, "chaos: batch %d: releasing follower A (lag %d)", next, fA.Stats().Lag)
	gateA.release()
	if err := fA.WaitSeq(last, phaseTimeout); err != nil {
		return rep, fmt.Errorf("chaos: follower A after stall: %w", err)
	}

	// Phase 5: apply up to the restart point, hand the collector off
	// to a successor mid-stream, finish the trace on it.
	if err := applyN(restart-next, fA, fB); err != nil {
		return rep, err
	}
	logf(cfg.Log, "chaos: batch %d: restarting collector at head %d", next, coll.Head())
	base, head := coll.Routes(), coll.Head()
	coll.Close()
	succ, err := mkCollector(base, head)
	if err != nil {
		return rep, err
	}
	coll = succ
	addr.Store(coll.Addr().String())
	rep.CollectorRestarts++
	if err := applyN(nb-next); err != nil {
		return rep, err
	}

	for name, f := range map[string]*feed.Follower{"A": fA, "B": fB} {
		if err := f.WaitSeq(last, phaseTimeout); err != nil {
			return rep, fmt.Errorf("chaos: follower %s never converged: %w", name, err)
		}
	}

	// Convergence: both replicas' published canonical compressed
	// tables must be byte-identical to the collector mirror's
	// canonical compression (and hence to each other).
	want := onrtc.Compress(trie.FromRoutes(coll.Routes())).Routes()
	wantHash := feed.CanonicalHash(want)
	var errs []error
	for name, app := range map[string]feed.Applier{"A": gateA, "B": appB} {
		got := app.CanonicalRoutes()
		if h := feed.CanonicalHash(got); h != wantHash {
			errs = append(errs, fmt.Errorf("chaos: follower %s canonical hash %016x != collector %016x (%d vs %d routes)",
				name, h, wantHash, len(got), len(want)))
		}
	}
	rep.ConvergedRoutes = len(want)

	sA, sB := fA.Stats(), fB.Stats()
	rep.Followers = []feed.FollowerStats{sA, sB}
	rep.Collector = coll.Stats()
	// The collector stats cover only the post-restart successor; the
	// report counts the whole storm.
	rep.Batches = uint64(nb)
	rep.Records = uint64(len(recs))
	for _, s := range rep.Followers {
		rep.Resumes += s.Resumes
		rep.SnapshotLoads += s.SnapshotLoads
		rep.Reconnects += s.Reconnects
		rep.HashChecks += s.HashChecks
		rep.HashMismatches += s.HashMismatches
	}

	// Both recovery paths must actually have run.
	if sA.Resumes == 0 {
		errs = append(errs, errors.New("chaos: follower A never resumed (brief cut should not force a snapshot)"))
	}
	if sB.SnapshotLoads < 2 {
		errs = append(errs, fmt.Errorf("chaos: follower B loaded %d snapshots, want >= 2 (over-window cut must re-snapshot)", sB.SnapshotLoads))
	}
	if rep.HashChecks == 0 {
		errs = append(errs, errors.New("chaos: no hash verifications ran"))
	}
	if rep.HashMismatches != 0 {
		errs = append(errs, fmt.Errorf("chaos: %d hash mismatches (replicas drifted mid-stream)", rep.HashMismatches))
	}

	fA.Close()
	fB.Close()
	coll.Close()
	appA.Close()
	appB.Close()
	rep.GoroutinesAfter = awaitGoroutines(rep.GoroutinesBefore)
	if rep.GoroutinesAfter > rep.GoroutinesBefore {
		errs = append(errs, fmt.Errorf("chaos: goroutine leak: %d before, %d after", rep.GoroutinesBefore, rep.GoroutinesAfter))
	}
	return rep, errors.Join(errs...)
}
