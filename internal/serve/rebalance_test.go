package serve

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"clue/internal/ip"
	"clue/internal/ribio"
)

// partitionAddrs returns one probe address per route in worker w's home
// partition of the current snapshot.
func partitionAddrs(t *testing.T, rt *Runtime, w int) []ip.Addr {
	t.Helper()
	slot := rt.ep.enter(1)
	defer slot.exit()
	snap := rt.snap.Load()
	var out []ip.Addr
	for i, e := range snap.rng {
		_ = i
		a := ip.Addr(rngFirst(e))
		if snap.Home(a) == w {
			out = append(out, a)
		}
	}
	return out
}

// homeRouteCount counts routes homed to worker w in the current
// snapshot.
func homeRouteCount(rt *Runtime, w int) int {
	slot := rt.ep.enter(1)
	defer slot.exit()
	snap := rt.snap.Load()
	n := 0
	for _, e := range snap.rng {
		if snap.Home(ip.Addr(rngFirst(e))) == w {
			n++
		}
	}
	return n
}

// TestRebalanceMovesHotRange drives all dispatch traffic into worker
// 0's partition and forces a pass: the recut must shrink the hot
// partition, report a strict imbalance improvement, stay within the
// movement bound, and keep dispatch answers equal to snapshot answers.
func TestRebalanceMovesHotRange(t *testing.T) {
	fib, routes := testRoutes(t, 2000, 7)
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	hot := partitionAddrs(t, rt, 0)
	if len(hot) == 0 {
		t.Fatal("worker 0 has no home routes")
	}
	before := homeRouteCount(rt, 0)
	for i := 0; i < 4000; i++ {
		if _, err := rt.Dispatch(hot[i%len(hot)]); err != nil {
			t.Fatal(err)
		}
	}

	res, err := rt.Rebalance(true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recut {
		t.Fatalf("hot-partition pass did not recut: %+v", res)
	}
	if res.ImbalanceAfter >= res.ImbalanceBefore {
		t.Fatalf("imbalance did not improve: before %.3f after %.3f", res.ImbalanceBefore, res.ImbalanceAfter)
	}
	m := rt.Snapshot().Len()
	cfg := rt.cfg.Rebalance
	if maxMove := int(cfg.MaxMoveFraction * float64(m)); res.MovedRoutes > maxMove {
		t.Fatalf("moved %d routes over the bound %d", res.MovedRoutes, maxMove)
	}
	if after := homeRouteCount(rt, 0); after >= before {
		t.Fatalf("hot partition did not shrink: %d -> %d routes", before, after)
	}
	st := rt.Stats()
	if st.Rebalance.Recuts != 1 || st.Rebalance.MovedRoutes != int64(res.MovedRoutes) {
		t.Fatalf("stats did not record the recut: %+v", st.Rebalance)
	}
	if st.Rebalance.LastImbalanceBefore != res.ImbalanceBefore || st.Rebalance.LastImbalanceAfter != res.ImbalanceAfter {
		t.Fatalf("stats imbalance gauges %+v do not match result %+v", st.Rebalance, res)
	}

	// The cut move must be invisible to answers: dispatch and snapshot
	// agree on every probe, hot range included.
	for i := 0; i < 500; i++ {
		a := hot[i%len(hot)]
		want, _ := fib.Lookup(a, nil)
		got, err := rt.Dispatch(a)
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != (want != ip.NoRoute) || (got.Found && got.Hop != want) {
			t.Fatalf("after recut: Dispatch(%s) = %d,%v want %d", a, got.Hop, got.Found, want)
		}
	}
}

// TestRebalanceSketchNoDoubleCount is the regression test for the
// sketch lifecycle: a pass drains the worker sketches destructively, so
// an immediate second pass must see zero new samples, and a re-homing
// publication (what every recut rides) must drop samples recorded under
// the old cut assignment instead of re-attributing them.
func TestRebalanceSketchNoDoubleCount(t *testing.T) {
	_, routes := testRoutes(t, 1200, 21)
	rt, err := New(routes, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	probes := partitionAddrs(t, rt, 0)
	const first = 4000
	for i := 0; i < first; i++ {
		if _, err := rt.Dispatch(probes[i%len(probes)]); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := rt.Rebalance(true)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DrainedSamples == 0 {
		t.Fatal("first pass drained no samples")
	}
	if max := uint64(first / sketchSamplePeriod); r1.DrainedSamples > max {
		t.Fatalf("drained %d samples from %d dispatches (sampling 1/%d): counted more than recorded",
			r1.DrainedSamples, first, sketchSamplePeriod)
	}
	// No traffic since the drain: a second pass re-counting anything
	// means the drain was not destructive and a recut double-counts.
	r2, err := rt.Rebalance(true)
	if err != nil {
		t.Fatal(err)
	}
	if r2.DrainedSamples != 0 {
		t.Fatalf("second pass re-drained %d samples with no traffic in between", r2.DrainedSamples)
	}

	// Fill the sketches again, then republish — the publication shape
	// every recut rides. The pending samples were recorded under the old
	// assignment and must be dropped: only post-republish traffic may be
	// drained afterwards.
	for i := 0; i < first; i++ {
		if _, err := rt.Dispatch(probes[i%len(probes)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Republish(); err != nil {
		t.Fatal(err)
	}
	const after = 80
	for i := 0; i < after; i++ {
		if _, err := rt.Dispatch(probes[i%len(probes)]); err != nil {
			t.Fatal(err)
		}
	}
	r3, err := rt.Rebalance(true)
	if err != nil {
		t.Fatal(err)
	}
	// Generous slack (one pending sample per worker) on top of the
	// post-republish recording budget; the earlier ~first/8 samples blow
	// way past it if the publication failed to reset the sketches.
	if max := uint64(after/sketchSamplePeriod + len(rt.workers)); r3.DrainedSamples > max {
		t.Fatalf("post-republish pass drained %d samples, want <= %d: the re-homing publication did not reset the sketch (recut would double-count moved ranges)",
			r3.DrainedSamples, max)
	}
}

// TestRebalanceHysteresis pins the skip ladder: balanced traffic stays
// below the imbalance threshold on an unforced pass, too little signal
// skips before measuring, and a degraded runtime never recuts.
func TestRebalanceHysteresis(t *testing.T) {
	_, routes := testRoutes(t, 1500, 9)
	rt, err := New(routes, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	res, err := rt.Rebalance(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recut || !strings.Contains(res.Reason, "samples") {
		t.Fatalf("cold pass should skip on sample mass, got %+v", res)
	}

	// Uniform traffic across all partitions: enough samples, but no
	// imbalance worth a recut.
	all := append(append(partitionAddrs(t, rt, 0), partitionAddrs(t, rt, 1)...), partitionAddrs(t, rt, 2)...)
	for i := 0; i < 6000; i++ {
		if _, err := rt.Dispatch(all[i%len(all)]); err != nil {
			t.Fatal(err)
		}
	}
	res, err = rt.Rebalance(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recut {
		t.Fatalf("uniform traffic recut: %+v", res)
	}
	if res.ImbalanceBefore >= rebalanceImbalanceThreshold {
		t.Fatalf("uniform traffic measured imbalance %.3f above threshold %.3f",
			res.ImbalanceBefore, rebalanceImbalanceThreshold)
	}

	if err := rt.FailWorker(1); err != nil {
		t.Fatal(err)
	}
	res, err = rt.Rebalance(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recut || !strings.Contains(res.Reason, "degraded") {
		t.Fatalf("degraded runtime should skip, got %+v", res)
	}
	if err := rt.RecoverWorker(1); err != nil {
		t.Fatal(err)
	}
}

// TestRebalancePeriodic runs the background loop end to end: a short
// interval plus a sustained hot spot must produce at least one recut
// without any manual trigger, and Close must stop the loop cleanly.
func TestRebalancePeriodic(t *testing.T) {
	_, routes := testRoutes(t, 2000, 13)
	rt, err := New(routes, Config{
		Workers:   4,
		Rebalance: RebalanceConfig{Interval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	hot := partitionAddrs(t, rt, 0)
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().Rebalance.Recuts == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no recut within deadline: %+v", rt.Stats().Rebalance)
		}
		for i := 0; i < 500; i++ {
			if _, err := rt.Dispatch(hot[i%len(hot)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := rt.Stats()
	if !st.Rebalance.Enabled {
		t.Fatal("periodic loop not reported enabled")
	}
	if st.Rebalance.SketchSamples == 0 {
		t.Fatal("no sketch samples accounted")
	}
}

// TestRebalancePlanSurvivesChurn pins the writer's persistent plan:
// route churn after a recut republishes snapshots, and the weighted
// boundaries must hold (snapped to surviving routes) instead of
// snapping back to the even count split.
func TestRebalancePlanSurvivesChurn(t *testing.T) {
	_, routes := testRoutes(t, 2000, 17)
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	hot := partitionAddrs(t, rt, 0)
	for i := 0; i < 4000; i++ {
		if _, err := rt.Dispatch(hot[i%len(hot)]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := rt.Rebalance(true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recut {
		t.Fatalf("no recut: %+v", res)
	}
	planned := homeRouteCount(rt, 0)
	even := rt.Snapshot().Len() / 4
	if planned >= even {
		t.Fatalf("recut left worker 0 with %d routes, not below the even split %d", planned, even)
	}

	// Structural churn: withdraw and re-announce a spread of routes so
	// several snapshots publish. The weighted cuts must survive.
	for i := 0; i < 50; i++ {
		r := routes[(i*41)%len(routes)]
		if _, err := rt.Withdraw(r.Prefix); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Announce(r.Prefix, r.NextHop); err != nil {
			t.Fatal(err)
		}
	}
	afterChurn := homeRouteCount(rt, 0)
	if diff := afterChurn - planned; diff > 5 || diff < -5 {
		t.Fatalf("weighted cut did not survive churn: worker 0 went %d -> %d routes (even split %d)",
			planned, afterChurn, even)
	}

	// A worker failure overrides the plan (even recut over survivors);
	// recovery re-applies it on the next publication.
	if err := rt.FailWorker(0); err != nil {
		t.Fatal(err)
	}
	if n := homeRouteCount(rt, 0); n != 0 {
		t.Fatalf("failed worker still homes %d routes", n)
	}
	if err := rt.RecoverWorker(0); err != nil {
		t.Fatal(err)
	}
	if n := homeRouteCount(rt, 0); n >= even {
		t.Fatalf("plan not re-applied after recovery: worker 0 homes %d routes (even split %d)", n, even)
	}
}

// TestPlannedRecutSurvivesTailWithdraw is the runtime half of the
// cutPlanned clamp: a weighted plan is installed, then route churn
// withdraws every route at or past the plan's last cut. The writer must
// republish — not panic — with every worker still owning a route, and
// lookups on both paths must answer from the shrunken table.
func TestPlannedRecutSurvivesTailWithdraw(t *testing.T) {
	routes := slash8Routes(everyFifth(40)...) // 5/8 … 200/8
	rt, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	a := octetAddr
	if err := rt.submitCtl([]ip.Addr{0, a(60), a(120), a(190)}); err != nil {
		t.Fatal(err)
	}
	var tail []ribio.UpdateRecord
	for _, r := range routes[37:] {
		tail = append(tail, ribio.UpdateRecord{Withdraw: true, Prefix: r.Prefix})
	}
	if _, err := rt.ApplyBatch(tail); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if n := homeRouteCount(rt, w); n == 0 {
			t.Fatalf("worker %d owns no route after the tail withdraw", w)
		}
	}
	for i, r := range routes {
		addr := r.Prefix.First() + 7
		want := i < 37
		hop, _, ok := rt.Lookup(addr)
		res, err := rt.Dispatch(addr)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want || res.Found != want || (want && (hop != r.NextHop || res.Hop != r.NextHop)) {
			t.Fatalf("%s: Lookup = %d/%v, Dispatch = %+v, want found=%v hop %d", addr, hop, ok, res, want, r.NextHop)
		}
	}
}

// TestRebalanceConfigValidate pins the config contract.
func TestRebalanceConfigValidate(t *testing.T) {
	_, routes := testRoutes(t, 200, 3)
	for name, cfg := range map[string]RebalanceConfig{
		"negative interval":  {Interval: -time.Second},
		"move fraction > 1":  {MaxMoveFraction: 1.5},
		"negative move frac": {MaxMoveFraction: -0.1},
	} {
		if _, err := New(routes, Config{Rebalance: cfg}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	rt, err := New(routes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.cfg.Rebalance.MaxMoveFraction != 0.25 {
		t.Errorf("defaults not applied: %+v", rt.cfg.Rebalance)
	}
	rt.Close()
	if _, err := rt.Rebalance(true); err != ErrClosed {
		t.Errorf("Rebalance after Close: err = %v, want ErrClosed", err)
	}
}

// TestDispatchBatchSketchMatchesDispatch pins the batch path's traffic
// sampling to the single-address path's: the same address sequence sent
// through DispatchBatch on one runtime and through sequential Dispatch
// calls on a twin reaches each worker in the same order, so the two
// must record identical per-bucket sketches and drain identical sample
// counts. The batch sizes are not multiples of the sampling period, so
// the sample phase must carry across batches.
func TestDispatchBatchSketchMatchesDispatch(t *testing.T) {
	_, routes := testRoutes(t, 3000, 23)
	batched, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	single, err := New(routes, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	rng := rand.New(rand.NewSource(23))
	addrs := make([]ip.Addr, 6000)
	for i := range addrs {
		addrs[i] = ip.Addr(rng.Uint32())
	}
	var out []Result
	for rest, n := addrs, 1; len(rest) > 0; n = n*3 + 2 {
		if n > len(rest) {
			n = len(rest)
		}
		if out, err = batched.DispatchBatch(rest[:n], out); err != nil {
			t.Fatal(err)
		}
		for i, res := range out {
			if res.Diverted {
				t.Fatalf("batch result %d diverted: the workers would see a different order", i)
			}
		}
		rest = rest[n:]
	}
	for _, a := range addrs {
		res, err := single.Dispatch(a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Diverted {
			t.Fatalf("Dispatch(%s) diverted: the workers would see a different order", a)
		}
	}

	var recorded uint64
	for w := range batched.workers {
		bs, ss := batched.workers[w].sketch, single.workers[w].sketch
		for b := range bs {
			got, want := bs[b].Load(), ss[b].Load()
			if got != want {
				t.Fatalf("worker %d sketch bucket %d: batch path %d, single path %d", w, b, got, want)
			}
			recorded += got
		}
	}
	if recorded == 0 {
		t.Fatal("no samples recorded on either path")
	}
	rb, err := batched.Rebalance(true)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := single.Rebalance(true)
	if err != nil {
		t.Fatal(err)
	}
	if rb.DrainedSamples != rs.DrainedSamples || rb.DrainedSamples != recorded {
		t.Fatalf("drained %d samples via batches, %d via single dispatches, %d recorded",
			rb.DrainedSamples, rs.DrainedSamples, recorded)
	}
}
