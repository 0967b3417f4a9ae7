package tracegen

// Adversarial scenarios: deterministic seeded programs that script a
// whole failure — the base FIB, a warmup churn, the storm itself and a
// cooldown — as phased update streams plus, per phase, a traffic spec
// and a fault list, with a declared quantitative contract and a replica
// count. The fault harness (internal/chaos) replays them against live
// serve runtimes; these generators only decide *what happens*, so the
// same seed always produces the byte-identical program (pinned by the
// golden-trace tests).
//
// The six scenarios:
//
//   - session-reset: a full-table BGP session flap — every live route
//     withdrawn in seeded shuffled order, then the exact table
//     re-announced, all while serving. The compressed table collapses
//     to (near) empty and is rebuilt route by route.
//   - route-leak: MashUp's motivating failure — a handful of short
//     covering prefixes suddenly deaggregate into /24 floods with
//     foreign next hops (the shape that bloats a compressed, tiled
//     table), then the leak retracts.
//   - update-burst: the paper's RIS trace peak rate ×100, sustained in
//     tight bursts interleaved with lookups.
//   - flash-crowd: the routing plane stays calm but the traffic Zipf
//     head inverts mid-run (same prefix population, reversed
//     popularity), defeating the home-partition carve and every divert
//     cache at once.
//   - worker-faults: benign churn while partition workers are killed,
//     poisoned, stalled, recovered and the carve is forcibly recut, in
//     three cycles.
//   - feed-partition: the same churn replicated through a collector to
//     two followers while one link is cut briefly, the other beyond the
//     replay window, an apply pipeline stalls and the collector restarts.
import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/trie"
)

// Scenario names, as accepted by GenScenario and clue-chaos -scenario.
const (
	ScenarioSessionReset = "session-reset"
	ScenarioRouteLeak    = "route-leak"
	ScenarioUpdateBurst  = "update-burst"
	ScenarioFlashCrowd   = "flash-crowd"

	ScenarioWorkerFaults  = "worker-faults"
	ScenarioFeedPartition = "feed-partition"
)

// ScenarioNames lists the known scenarios in a fixed order.
func ScenarioNames() []string {
	return []string{ScenarioSessionReset, ScenarioRouteLeak, ScenarioUpdateBurst, ScenarioFlashCrowd,
		ScenarioWorkerFaults, ScenarioFeedPartition}
}

// FaultKind names one injectable fault. Worker faults hit every serving
// runtime; link, applier and collector faults need Scenario.Replicas > 0.
type FaultKind uint8

const (
	// FaultKill fails a worker through the operator API; FaultPoison
	// makes it panic mid-service. FaultRecover returns either to service.
	FaultKill FaultKind = iota + 1
	FaultPoison
	// FaultStall wedges a worker's queue; FaultRelease frees every
	// stalled queue.
	FaultStall
	FaultRelease
	FaultRecover
	// FaultCut takes a replica's link down (dials fail) until FaultHeal.
	FaultCut
	FaultHeal
	// FaultStallApplier blocks a replica's apply pipeline with its
	// connection intact until FaultReleaseApplier.
	FaultStallApplier
	FaultReleaseApplier
	// FaultRestartCollector hands the collector's state to a successor.
	FaultRestartCollector
	// FaultRecut forces a load-aware repartitioning pass.
	FaultRecut
)

var faultNames = [...]string{"", "kill", "poison", "stall", "release", "recover", "cut", "heal",
	"stall-applier", "release-applier", "restart-collector", "recut"}

// String names the kind (the key of the harness's fault counters).
func (k FaultKind) String() string {
	if int(k) < len(faultNames) && k != 0 {
		return faultNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Fault is one scheduled injection: it fires before the phase's update
// number At (or at the end of the phase when At is past the last one).
// Target is a worker index, reduced modulo the runtime's worker count,
// or a replica index; kinds that take neither ignore it.
type Fault struct {
	At     int
	Kind   FaultKind
	Target int
}

// TrafficSpec is the lookup-traffic shape a phase runs under (the
// parameters of a Traffic generator; the driver supplies the seed and
// prefix population).
type TrafficSpec struct {
	ZipfS  float64 `json:"zipf_s"`
	Repeat float64 `json:"repeat"`
	Invert bool    `json:"invert"`
}

// ScenarioContract is the scenario's declared quantitative bounds,
// asserted by the driver over the whole run:
//
//   - MaxDegradedP99 bounds the runtime's end-to-end dispatch p99
//     (worst outcome path) with the storm included — degraded mode may
//     divert, it may not cliff.
//   - MaxDivertRate bounds diverted/dispatched over the run.
//   - MaxConverge bounds time-to-converge: the gap between the last
//     storm update completing and the published table's canonical hash
//     first matching the oracle's expectation.
type ScenarioContract struct {
	MaxDegradedP99 time.Duration `json:"max_degraded_p99"`
	MaxDivertRate  float64       `json:"max_divert_rate"`
	MaxConverge    time.Duration `json:"max_converge"`
}

// ScenarioPhase is one stretch of the program: an ordered update stream
// (possibly empty), the traffic spec in force while it plays and the
// faults injected along it, ordered by At.
type ScenarioPhase struct {
	Name    string
	Storm   bool
	Updates []Update
	Traffic TrafficSpec
	Faults  []Fault
}

// Scenario is a fully generated program: the base FIB the runtimes
// boot from, the phases to replay in order, the contract to hold the
// run to, and the topology — Replicas 0 applies updates straight to one
// runtime, N streams them through a feed collector to N followers.
type Scenario struct {
	Name     string
	Cfg      ScenarioConfig
	Base     []ip.Route
	Phases   []ScenarioPhase
	Contract ScenarioContract
	Replicas int
}

// Ops returns the total update count across phases.
func (s *Scenario) Ops() int {
	n := 0
	for _, ph := range s.Phases {
		n += len(ph.Updates)
	}
	return n
}

// StormPhase returns the index of the storm phase (-1 if none — never
// the case for generated scenarios).
func (s *Scenario) StormPhase() int {
	for i, ph := range s.Phases {
		if ph.Storm {
			return i
		}
	}
	return -1
}

// ScenarioConfig parameterises scenario generation. Zero values take
// scenario-calibrated defaults.
type ScenarioConfig struct {
	// Seed drives the FIB, every update choice and the storm ordering.
	Seed int64
	// Routes is the base FIB size (default 12000).
	Routes int
	// NextHops is the hop universe (default 16).
	NextHops int
	// WarmupOps/CooldownOps are the benign churn lengths bracketing the
	// storm (defaults Routes/8 and Routes/16).
	WarmupOps   int
	CooldownOps int
	// StormOps sizes storms that draw from the generic churn generator
	// (update-burst's flood; flash-crowd's background churn). Default
	// 4*WarmupOps for update-burst, WarmupOps/2 for flash-crowd.
	StormOps int
	// LeakCovers/LeakFanout shape the route-leak storm: how many short
	// covering prefixes deaggregate, into at most how many /24s each
	// (defaults 6 and 192).
	LeakCovers int
	LeakFanout int
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Routes == 0 {
		c.Routes = 12000
	}
	if c.NextHops < 2 {
		c.NextHops = 16
	}
	if c.WarmupOps == 0 {
		c.WarmupOps = c.Routes / 8
	}
	if c.WarmupOps < 4 {
		c.WarmupOps = 4
	}
	if c.CooldownOps == 0 {
		c.CooldownOps = c.Routes / 16
	}
	if c.CooldownOps < 2 {
		c.CooldownOps = 2
	}
	if c.LeakCovers == 0 {
		c.LeakCovers = 6
	}
	if c.LeakFanout == 0 {
		c.LeakFanout = 192
	}
	return c
}

// paperPeakPerSec is the RIS trace's peak update rate the paper's
// evaluation cites (~1K updates/s); update-burst storms run at 100×
// this in trace time.
const paperPeakPerSec = 1000

// benignTraffic is the calibrated traffic spec outside storms.
var benignTraffic = TrafficSpec{ZipfS: 1.2, Repeat: 0.2}

// GenScenario generates the named scenario. Same name + config ⇒
// identical program, down to the byte in exported form.
func GenScenario(name string, cfg ScenarioConfig) (*Scenario, error) {
	cfg = cfg.withDefaults()
	fib, err := fibgen.Generate(fibgen.Config{Seed: cfg.Seed, Routes: cfg.Routes, NextHops: cfg.NextHops})
	if err != nil {
		return nil, fmt.Errorf("tracegen: scenario base FIB: %w", err)
	}
	base := fib.Routes()
	gen, err := NewUpdateGen(trie.FromRoutes(base), UpdateConfig{
		Seed:     cfg.Seed + 1,
		Messages: cfg.WarmupOps, // sets the trace-time step only
		NextHops: cfg.NextHops,
	})
	if err != nil {
		return nil, err
	}
	sc := &Scenario{Name: name, Cfg: cfg, Base: base}
	b := &scenarioBuilder{
		cfg: cfg,
		gen: gen,
		rng: rand.New(rand.NewSource(cfg.Seed + 2)),
	}
	switch name {
	case ScenarioSessionReset:
		b.buildSessionReset(sc)
	case ScenarioRouteLeak:
		if err := b.buildRouteLeak(sc); err != nil {
			return nil, err
		}
	case ScenarioUpdateBurst:
		b.buildUpdateBurst(sc)
	case ScenarioFlashCrowd:
		b.buildFlashCrowd(sc)
	case ScenarioWorkerFaults:
		b.buildWorkerFaults(sc)
	case ScenarioFeedPartition:
		if err := b.buildFeedPartition(sc); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("tracegen: unknown scenario %q (known: %v)", name, ScenarioNames())
	}
	return sc, nil
}

// scenarioBuilder threads the shared state through phase construction:
// the churn generator (whose live view must stay consistent with what
// the phases actually did to the table), the storm RNG and the trace
// clock.
type scenarioBuilder struct {
	cfg ScenarioConfig
	gen *UpdateGen
	rng *rand.Rand
	now time.Duration
	seq int
}

// churn draws n benign updates from the generator and restamps them
// onto the builder's clock.
func (b *scenarioBuilder) churn(n int) []Update {
	ups := b.gen.NextN(n)
	for i := range ups {
		b.stamp(&ups[i], time.Millisecond)
	}
	return ups
}

// stamp rewrites an update's Seq/At onto the program-wide clock.
func (b *scenarioBuilder) stamp(u *Update, gap time.Duration) {
	u.Seq = b.seq
	b.seq++
	b.now += gap
	u.At = b.now
}

// storm emits one scripted storm update at burst pacing (the paper's
// peak ×100 ⇒ 10µs spacing in trace time).
func (b *scenarioBuilder) storm(kind UpdateKind, p ip.Prefix, hop ip.NextHop) Update {
	u := Update{Kind: kind, Prefix: p, Hop: hop}
	b.stamp(&u, time.Second/(100*paperPeakPerSec))
	return u
}

// stormOps sizes a storm drawn from the churn generator: the configured
// StormOps, or def when the caller left it to the scenario.
func (b *scenarioBuilder) stormOps(def int) int {
	if b.cfg.StormOps != 0 {
		return b.cfg.StormOps
	}
	return def
}

// stormContract is the bound set of every storm that does not set out
// to divert: degraded mode may divert, it may not cliff.
var stormContract = ScenarioContract{
	MaxDegradedP99: 500 * time.Millisecond,
	MaxDivertRate:  0.5,
	MaxConverge:    10 * time.Second,
}

// program assembles the common three-phase shape — benign warmup, the
// storm, benign cooldown. The cooldown is drawn last, after the storm
// has left the churn generator's live view where the phases left the
// table.
func (b *scenarioBuilder) program(sc *Scenario, warm []Update, storm ScenarioPhase, contract ScenarioContract) {
	storm.Storm = true
	sc.Phases = []ScenarioPhase{
		{Name: "warmup", Updates: warm, Traffic: benignTraffic},
		storm,
		{Name: "cooldown", Updates: b.churn(b.cfg.CooldownOps), Traffic: benignTraffic},
	}
	sc.Contract = contract
}

func (b *scenarioBuilder) buildSessionReset(sc *Scenario) {
	warm := b.churn(b.cfg.WarmupOps)
	live := b.gen.LiveRoutes()
	// Withdraw everything in one shuffled sweep, then re-announce the
	// identical table in an independently shuffled order. The generator's
	// live view is untouched — the storm restores exactly the set it
	// found — so the cooldown churn below stays self-consistent.
	storm := make([]Update, 0, 2*len(live))
	for _, i := range b.rng.Perm(len(live)) {
		storm = append(storm, b.storm(Withdraw, live[i].Prefix, 0))
	}
	for _, i := range b.rng.Perm(len(live)) {
		storm = append(storm, b.storm(Announce, live[i].Prefix, live[i].NextHop))
	}
	b.program(sc, warm, ScenarioPhase{Name: "reset", Updates: storm, Traffic: benignTraffic}, stormContract)
}

func (b *scenarioBuilder) buildRouteLeak(sc *Scenario) error {
	warm := b.churn(b.cfg.WarmupOps)
	live := b.gen.LiveRoutes()
	// Leak sources: the shortest covering prefixes in the live set (the
	// biggest deaggregation spans — a leak from a /12 floods far more
	// /24s than one from a /22), ties broken by a seeded shuffle.
	var candidates []ip.Route
	for _, i := range b.rng.Perm(len(live)) {
		if live[i].Prefix.Len >= 8 && live[i].Prefix.Len <= 22 {
			candidates = append(candidates, live[i])
		}
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		return candidates[i].Prefix.Len < candidates[j].Prefix.Len
	})
	covers := candidates
	if len(covers) > b.cfg.LeakCovers {
		covers = covers[:b.cfg.LeakCovers]
	}
	if len(covers) == 0 {
		return fmt.Errorf("tracegen: route-leak needs a cover prefix (/8../22) in the live set; none at seed %d", b.cfg.Seed)
	}
	// Deaggregate: every cover floods a contiguous run of /24s whose
	// next hops cycle through the hop universe (always skipping the
	// cover's own) — adjacent /24s never share a hop, so ONRTC can
	// neither absorb a leaked route into its cover nor merge neighbours
	// back into one range. This is the worst case for a compressed
	// table: every /24 must become its own entry. Skip /24s that are
	// already live to keep the churn generator's view consistent.
	var leaked []Update
	seen := make(map[ip.Prefix]struct{})
	for _, cover := range covers {
		span := 1 << (24 - cover.Prefix.Len)
		fanout := b.cfg.LeakFanout
		if span < fanout {
			fanout = span
		}
		var hops []ip.NextHop
		for h := 1; h <= b.cfg.NextHops; h++ {
			if ip.NextHop(h) != cover.NextHop {
				hops = append(hops, ip.NextHop(h))
			}
		}
		start := b.rng.Intn(len(hops))
		for k := 0; k < fanout; k++ {
			p := ip.MustPrefix(cover.Prefix.First()+ip.Addr(k)<<8, 24)
			if _, dup := seen[p]; dup || b.gen.Has(p) {
				// Nested covers can propose the same /24 twice; a live /24
				// would desynchronise the churn generator's view.
				continue
			}
			seen[p] = struct{}{}
			leaked = append(leaked, Update{Kind: Announce, Prefix: p, Hop: hops[(start+k)%len(hops)]})
		}
	}
	// Flood in globally shuffled order (the covers interleave), then
	// retract the whole leak in a fresh shuffled order.
	b.rng.Shuffle(len(leaked), func(i, j int) { leaked[i], leaked[j] = leaked[j], leaked[i] })
	storm := make([]Update, 0, 2*len(leaked))
	for i := range leaked {
		storm = append(storm, b.storm(Announce, leaked[i].Prefix, leaked[i].Hop))
	}
	retract := b.rng.Perm(len(leaked))
	for _, i := range retract {
		storm = append(storm, b.storm(Withdraw, leaked[i].Prefix, 0))
	}
	b.program(sc, warm, ScenarioPhase{Name: "leak", Updates: storm, Traffic: benignTraffic}, stormContract)
	return nil
}

func (b *scenarioBuilder) buildUpdateBurst(sc *Scenario) {
	warm := b.churn(b.cfg.WarmupOps)
	// The storm is the benign mix at 100× the paper's peak rate: the
	// generator supplies the (self-consistent) update choices, the
	// builder restamps them onto burst spacing.
	storm := b.gen.NextN(b.stormOps(4 * b.cfg.WarmupOps))
	for i := range storm {
		b.stamp(&storm[i], time.Second/(100*paperPeakPerSec))
	}
	b.program(sc, warm, ScenarioPhase{Name: "burst", Updates: storm, Traffic: benignTraffic}, stormContract)
}

func (b *scenarioBuilder) buildFlashCrowd(sc *Scenario) {
	warm := b.churn(b.cfg.WarmupOps)
	// The routing plane stays calm (light background churn); the attack
	// is the traffic spec: same population, popularity ranking reversed
	// and burstier — every divert cache goes cold at once and the
	// hottest home partitions flip.
	flip := ScenarioPhase{Name: "flip", Updates: b.churn(b.stormOps(b.cfg.WarmupOps / 2)),
		Traffic: TrafficSpec{ZipfS: 1.2, Repeat: 0.5, Invert: true}}
	// Inverted-head traffic is allowed to divert heavily — that is the
	// mechanism under test — but the cascade must stay bounded and the
	// tail must not cliff.
	b.program(sc, warm, flip, ScenarioContract{
		MaxDegradedP99: time.Second,
		MaxDivertRate:  0.98,
		MaxConverge:    10 * time.Second,
	})
}

// faultCycles is how many kill/recover cycles worker-faults spreads over
// its storm.
const faultCycles = 3

func (b *scenarioBuilder) buildWorkerFaults(sc *Scenario) {
	warm := b.churn(b.cfg.WarmupOps)
	storm := b.churn(b.stormOps(4 * b.cfg.WarmupOps))
	// Per cycle one worker goes down at the quarter mark (operator fail
	// on even cycles, injected panic on odd), its neighbour's queue
	// stalls at the half and is released at five eighths, the victim
	// recovers at three quarters and the carve is forcibly recut over
	// whatever traffic the sketches saw in between.
	var faults []Fault
	cycle := len(storm) / faultCycles
	for c := 0; c < faultCycles; c++ {
		at, victim, kind := c*cycle, b.rng.Intn(64), FaultKill
		if c%2 == 1 {
			kind = FaultPoison
		}
		faults = append(faults,
			Fault{at + cycle/4, kind, victim},
			Fault{at + cycle/2, FaultStall, victim + 1},
			Fault{at + cycle*5/8, FaultRelease, 0},
			Fault{at + cycle*3/4, FaultRecover, victim},
			Fault{at + cycle*7/8, FaultRecut, 0},
		)
	}
	// Failure handling re-homes rather than diverts and a stall diverts
	// only its own partition; the tail bound is the dispatch path's own
	// 1s enqueue budget — a dispatch that succeeded slower than the
	// budget for failing means the backoff path wedged.
	b.program(sc, warm, ScenarioPhase{Name: "faults", Updates: storm, Traffic: benignTraffic, Faults: faults},
		ScenarioContract{MaxDegradedP99: time.Second, MaxDivertRate: 0.5, MaxConverge: 10 * time.Second})
}

// The feed-partition cuts are sized in ops against the harness's replay
// window (16 batches of at most 4 ops): the brief cut misses a handful
// of batches and must resume, the long one misses at least one and a
// half windows and must re-snapshot. feedStormFloor is the smallest
// storm that heals the long cut before the collector restarts.
const (
	feedBriefCutOps = 16
	feedLongCutOps  = 96
	feedStormFloor  = 256
)

func (b *scenarioBuilder) buildFeedPartition(sc *Scenario) error {
	n := b.stormOps(4 * b.cfg.WarmupOps)
	if n < feedStormFloor {
		return fmt.Errorf("tracegen: feed-partition's fault schedule needs a storm of at least %d ops, got %d", feedStormFloor, n)
	}
	warm := b.churn(b.cfg.WarmupOps)
	// Seeded jitter keeps runs seed-distinct without letting two faults
	// on one replica overlap; the two cuts are on different replicas and
	// may.
	jit := func() int { return b.rng.Intn(n / 32) }
	brief, long, stall, restart := n/8+jit(), n/4+jit(), n/2+jit(), n*3/4+jit()
	faults := []Fault{
		{brief, FaultCut, 0},
		{brief + feedBriefCutOps, FaultHeal, 0},
		{long, FaultCut, 1},
		{long + feedLongCutOps, FaultHeal, 1},
		{stall, FaultStallApplier, 0},
		{stall + n/8, FaultReleaseApplier, 0},
		{restart, FaultRestartCollector, 0},
	}
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
	sc.Replicas = 2
	b.program(sc, warm, ScenarioPhase{Name: "partition", Updates: b.churn(n), Traffic: benignTraffic, Faults: faults}, stormContract)
	return nil
}

// ExportScenario writes the scenario as a deterministic text program:
// a scenario header, then per phase a header line, one line per fault
// and the phase's updates in the ribio interchange format. Same scenario ⇒ byte-
// identical output (the golden tests pin this).
func ExportScenario(w io.Writer, sc *Scenario) error {
	if _, err := fmt.Fprintf(w,
		"# clue scenario: name=%s seed=%d routes=%d hops=%d ops=%d\n# contract: p99<=%s divert<=%g converge<=%s\n",
		sc.Name, sc.Cfg.Seed, sc.Cfg.Routes, sc.Cfg.NextHops, sc.Ops(),
		sc.Contract.MaxDegradedP99, sc.Contract.MaxDivertRate, sc.Contract.MaxConverge); err != nil {
		return fmt.Errorf("tracegen: %w", err)
	}
	for _, ph := range sc.Phases {
		if _, err := fmt.Fprintf(w, "# phase: %s storm=%v updates=%d zipf=%g repeat=%g invert=%v\n",
			ph.Name, ph.Storm, len(ph.Updates), ph.Traffic.ZipfS, ph.Traffic.Repeat, ph.Traffic.Invert); err != nil {
			return fmt.Errorf("tracegen: %w", err)
		}
		for _, f := range ph.Faults {
			if _, err := fmt.Fprintf(w, "# fault: at=%d kind=%s target=%d\n", f.At, f.Kind, f.Target); err != nil {
				return fmt.Errorf("tracegen: %w", err)
			}
		}
		if err := ribio.WriteUpdates(w, Records(ph.Updates)); err != nil {
			return err
		}
	}
	return nil
}
