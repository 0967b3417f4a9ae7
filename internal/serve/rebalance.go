package serve

import (
	"fmt"
	"sort"
	"time"

	"clue/internal/ip"
	"clue/internal/partition"
	"clue/internal/ttf"
)

// Traffic-sketch geometry. Each worker counts sampled served addresses
// into one counter per /12 stride bucket (4096 buckets, 32 KiB per
// worker): coarse enough to stay off the serve path's cache budget,
// fine enough that a flash crowd on one prefix lights up exactly its
// bucket. The rebalancer drains the counters with atomic swaps, so the
// serve path never blocks on a pass.
const (
	sketchBits    = 12
	sketchBuckets = 1 << sketchBits
	sketchShift   = 32 - sketchBits
	// sketchSamplePeriod is the worker-side sampling stride: one in
	// sketchSamplePeriod served addresses is counted (power of two; the
	// recording test depends on the exact period).
	sketchSamplePeriod = 8
	// rebalanceMinSamples gates unforced passes: below this much decayed
	// sample mass the weight estimate is noise, not signal.
	rebalanceMinSamples = 256
	// rebalanceDecay is the per-pass EWMA factor on the aggregate weight
	// vector: the estimate survives re-homings (the raw worker sketches
	// do not — see worker.resetSketch) while still tracking a moving hot
	// set within a few intervals. Bursty traffic
	// makes single-interval distributions genuinely unstable, so the
	// memory is deliberately long (~4 intervals of effective mass).
	rebalanceDecay = 0.75
	// rebalanceHotStreak is the persistence gate: an unforced pass recuts
	// only after this many consecutive over-threshold measurements, so a
	// one-interval traffic burst cannot trigger a whole-table re-homing
	// that a steady estimate would not have asked for.
	rebalanceHotStreak = 2
)

// RebalanceConfig parameterises the load-aware repartitioning loop: a
// background pass that estimates per-range traffic from the worker
// sketches and re-carves the partition cuts to minimize the maximum
// partition load (partition.CarveWeighted), publishing improved cuts
// through the same re-homing control publication worker failures use.
type RebalanceConfig struct {
	// Interval between periodic passes. 0 (the default) disables the
	// background loop; manual Runtime.Rebalance calls and the
	// /admin/rebalance trigger still work.
	Interval time.Duration
	// ImbalanceThreshold is the hysteresis gate: an unforced pass
	// proposes a recut only when the observed imbalance (max partition
	// traffic / mean) is at least this ratio. Default 1.25; must be >= 1
	// (1 rebalances on any improvement).
	ImbalanceThreshold float64
	// MaxMoveFraction bounds each recut's churn: at most this fraction of
	// the table's routes may change home per pass, so a recut never
	// invalidates more locality than it repairs. Default 0.25; must be in
	// (0, 1].
	MaxMoveFraction float64
}

func (c RebalanceConfig) validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("serve: Rebalance.Interval must be >= 0 (0 disables), got %v", c.Interval)
	}
	if c.ImbalanceThreshold != 0 && c.ImbalanceThreshold < 1 {
		return fmt.Errorf("serve: Rebalance.ImbalanceThreshold must be >= 1 (0 means default), got %g", c.ImbalanceThreshold)
	}
	if c.MaxMoveFraction < 0 || c.MaxMoveFraction > 1 {
		return fmt.Errorf("serve: Rebalance.MaxMoveFraction must be in [0, 1] (0 means default), got %g", c.MaxMoveFraction)
	}
	return nil
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.ImbalanceThreshold == 0 {
		c.ImbalanceThreshold = 1.25
	}
	if c.MaxMoveFraction == 0 {
		c.MaxMoveFraction = 0.25
	}
	return c
}

// RebalanceResult reports one rebalance pass.
type RebalanceResult struct {
	// Recut reports whether the pass published new cuts; Reason says why
	// not when it did not.
	Recut  bool   `json:"recut"`
	Reason string `json:"reason,omitempty"`
	// ImbalanceBefore is max partition traffic / mean under the current
	// cuts; ImbalanceAfter the projection under the carved cuts (equal to
	// Before on a skipped pass that got far enough to measure).
	ImbalanceBefore float64 `json:"imbalance_before"`
	ImbalanceAfter  float64 `json:"imbalance_after"`
	// MovedRoutes bounds the routes re-homed by the published cuts.
	MovedRoutes int `json:"moved_routes"`
	// DrainedSamples is the raw sketch mass drained from the workers by
	// this pass (before decay).
	DrainedSamples uint64 `json:"drained_samples"`
}

// RebalanceStats is the Stats() view of the repartitioning loop.
type RebalanceStats struct {
	// Enabled reports whether the periodic loop is running.
	Enabled bool `json:"enabled"`
	// Recuts counts published weighted recuts; Skips the passes that
	// published nothing; MovedRoutes the total routes re-homed.
	Recuts      int64 `json:"recuts"`
	Skips       int64 `json:"skips"`
	MovedRoutes int64 `json:"moved_routes"`
	// LastImbalanceBefore/After are the most recent pass's measured and
	// projected imbalance ratios.
	LastImbalanceBefore float64 `json:"last_imbalance_before"`
	LastImbalanceAfter  float64 `json:"last_imbalance_after"`
	// SketchSamples counts sketch samples drained over the runtime's
	// life.
	SketchSamples int64 `json:"sketch_samples"`
}

// rebalanceState is the rebalancer's aggregate estimate plus reusable
// scratch, all guarded by Runtime.rebalanceMu.
type rebalanceState struct {
	// weights is the decayed per-bucket traffic aggregate; samples the
	// decayed total mass behind it (the hysteresis signal gate).
	weights []float64
	samples float64
	// hotStreak counts consecutive unforced passes that measured over the
	// imbalance threshold (the rebalanceHotStreak persistence gate).
	hotStreak int
	// Carve scratch, reused across passes.
	routeW []float64
	firsts []uint32
	lasts  []uint32
	cuts   []int
}

// rebalancer is the periodic loop New starts when Rebalance.Interval is
// set. Each tick runs one unforced pass; hysteresis lives inside
// Rebalance itself so the manual trigger shares it.
func (r *Runtime) rebalancer() {
	defer r.rebalanceWG.Done()
	t := time.NewTicker(r.cfg.Rebalance.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.rebalanceStop:
			return
		case <-t.C:
			r.Rebalance(false) //nolint:errcheck // skip reasons land in Stats
		}
	}
}

// Rebalance runs one repartitioning pass: drain the worker traffic
// sketches into the decayed aggregate, estimate per-route weight, and —
// when the imbalance clears the hysteresis gate and a movement-bounded
// weighted carve (partition.CarveWeighted) strictly improves it —
// publish the new cuts through a re-homing control publication, exactly
// like a worker-failure recut (every later snapshot keeps the plan).
// force skips the sample-mass and imbalance-threshold gates (the
// /admin/rebalance path); a forced pass still refuses cuts
// that do not improve the estimate. The returned result reports what
// happened either way; the error is non-nil only for a closed runtime.
func (r *Runtime) Rebalance(force bool) (RebalanceResult, error) {
	if r.closed.Load() {
		return RebalanceResult{}, ErrClosed
	}
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()

	rb := &r.rb
	if rb.weights == nil {
		rb.weights = make([]float64, sketchBuckets)
	}
	var drained uint64
	for b := range rb.weights {
		rb.weights[b] *= rebalanceDecay
	}
	for _, w := range r.workers {
		for b := range w.sketch {
			if v := w.sketch[b].Swap(0); v != 0 {
				rb.weights[b] += float64(v)
				drained += v
			}
		}
	}
	rb.samples = rb.samples*rebalanceDecay + float64(drained)
	r.m.sketchSamples.Add(int64(drained))

	res := RebalanceResult{DrainedSamples: drained}
	skip := func(reason string) (RebalanceResult, error) {
		res.Reason = reason
		r.m.rebalanceSkips.Add(1)
		return res, nil
	}
	// A degraded runtime already runs on the hardened even recut over the
	// survivors; layering a weighted plan on top would fight the health
	// machinery, so wait the failure out.
	if r.healthyCount() != len(r.workers) {
		return skip("degraded: worker out of service")
	}
	if !force && rb.samples < rebalanceMinSamples {
		return skip("insufficient traffic samples")
	}

	// Copy the route bounds and current cut indices out under an epoch
	// pin; everything after works on the copies, so the arena is never
	// escaped and never held.
	nw := len(r.workers)
	slot := r.ep.enter(r.pinSeed.Add(1))
	snap := r.snap.Load()
	m := len(snap.rng)
	if m < nw {
		slot.exit()
		return skip("fewer routes than workers")
	}
	rb.firsts = rb.firsts[:0]
	rb.lasts = rb.lasts[:0]
	for _, e := range snap.rng {
		rb.firsts = append(rb.firsts, rngFirst(e))
		rb.lasts = append(rb.lasts, rngLast(e))
	}
	rb.cuts = append(rb.cuts[:0], 0)
	validCuts := true
	for j := 1; j < nw; j++ {
		want := uint32(snap.starts[j])
		idx := sort.Search(m, func(i int) bool { return rb.firsts[i] >= want })
		if idx <= rb.cuts[j-1] || idx >= m {
			// A worker with no home range in the published snapshot (e.g.
			// just recovered, not yet recut over): let the next route-churn
			// or health publication regularize the cuts first.
			validCuts = false
			break
		}
		rb.cuts = append(rb.cuts, idx)
	}
	slot.exit()
	if !validCuts {
		return skip("degenerate current cuts")
	}

	// Project the bucket weights onto routes: a bucket's mass is split
	// evenly across the routes it intersects; a bucket covering no route
	// (miss traffic) charges the preceding route, whose partition serves
	// those addresses.
	if cap(rb.routeW) < m {
		rb.routeW = make([]float64, m)
	} else {
		rb.routeW = rb.routeW[:m]
		for i := range rb.routeW {
			rb.routeW[i] = 0
		}
	}
	total := 0.0
	i := 0
	for b := 0; b < sketchBuckets; b++ {
		wgt := rb.weights[b]
		if wgt == 0 {
			continue
		}
		bFirst := uint32(b) << sketchShift
		bLast := bFirst | (1<<sketchShift - 1)
		for i < m && rb.lasts[i] < bFirst {
			i++
		}
		j := i
		for j < m && rb.firsts[j] <= bLast {
			j++
		}
		if j == i {
			k := i - 1
			if k < 0 {
				k = 0
			}
			rb.routeW[k] += wgt
		} else {
			share := wgt / float64(j-i)
			for k := i; k < j; k++ {
				rb.routeW[k] += share
			}
		}
		total += wgt
	}
	if total == 0 {
		return skip("no traffic signal")
	}

	res.ImbalanceBefore = r.imbalanceOf(rb.cuts, m, total, nw)
	res.ImbalanceAfter = res.ImbalanceBefore
	r.m.rebalanceImbBefore.set(res.ImbalanceBefore)
	if !force {
		if res.ImbalanceBefore < r.cfg.Rebalance.ImbalanceThreshold {
			rb.hotStreak = 0
			return skip("below imbalance threshold")
		}
		if rb.hotStreak++; rb.hotStreak < rebalanceHotStreak {
			return skip("imbalance not yet persistent")
		}
	}

	maxMove := int(r.cfg.Rebalance.MaxMoveFraction * float64(m))
	carve, err := partition.CarveWeighted(rb.routeW, nw, rb.cuts, maxMove)
	if err != nil {
		return skip("carve: " + err.Error())
	}
	after := carve.MaxWeight * float64(nw) / total
	if carve.Moved == 0 || after >= res.ImbalanceBefore {
		return skip("no improving move within bounds")
	}
	res.ImbalanceAfter = after
	res.MovedRoutes = carve.Moved

	plan := make([]ip.Addr, nw)
	for j := 1; j < nw; j++ {
		plan[j] = ip.Addr(rb.firsts[carve.Cuts[j]])
	}
	if err := r.submitPlan(plan); err != nil {
		return res, err
	}
	res.Recut = true
	rb.hotStreak = 0
	r.m.rebalances.Add(1)
	r.m.rebalanceMoved.Add(int64(carve.Moved))
	r.m.rebalanceImbAfter.set(after)
	return res, nil
}

// imbalanceOf is max partition weight / mean under cuts, over the
// current rb.routeW.
func (r *Runtime) imbalanceOf(cuts []int, m int, total float64, nw int) float64 {
	maxW := 0.0
	for j := range cuts {
		end := m
		if j+1 < len(cuts) {
			end = cuts[j+1]
		}
		w := 0.0
		for k := cuts[j]; k < end; k++ {
			w += r.rb.routeW[k]
		}
		if w > maxW {
			maxW = w
		}
	}
	return maxW * float64(nw) / total
}

// submitPlan queues the control publication installing plan as the
// writer's persistent cut plan — the same re-homing publication worker
// health changes ride.
func (r *Runtime) submitPlan(plan []ip.Addr) error {
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
