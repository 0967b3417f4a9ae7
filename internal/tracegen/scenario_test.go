package tracegen

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/trie"
)

// scenarioTestConfig is the pinned shape of the scenario goldens: small
// enough to keep the files reviewable, large enough that every phase is
// non-trivial. feed-partition's fault schedule is sized against the
// harness's replay window and has a storm floor.
func scenarioTestConfig(name string) ScenarioConfig {
	cfg := ScenarioConfig{
		Seed:        7,
		Routes:      150,
		WarmupOps:   24,
		CooldownOps: 12,
		StormOps:    48,
		LeakCovers:  2,
		LeakFanout:  16,
	}
	if name == ScenarioFeedPartition {
		cfg.StormOps = feedStormFloor
	}
	return cfg
}

func exportScenarioBytes(t *testing.T, name string, cfg ScenarioConfig) (*Scenario, []byte) {
	t.Helper()
	sc, err := GenScenario(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	return sc, buf.Bytes()
}

// TestScenarioGolden pins each scenario generator's exported bytes for
// a fixed seed: scenarios are reproducible programs, so any change to a
// generator, the conversion or the export format is a deliberate
// breaking change (regenerate with
// go test ./internal/tracegen -run TestScenarioGolden -update).
func TestScenarioGolden(t *testing.T) {
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			_, got := exportScenarioBytes(t, name, scenarioTestConfig(name))
			golden := filepath.Join("testdata", "golden_scenario_"+name+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("scenario %s diverged from golden (regenerate with -update if intended); first 400 bytes:\n%.400s",
					name, got)
			}
		})
	}
}

// TestScenarioDeterministic: same seed ⇒ byte-identical program,
// different seed ⇒ different bytes, for every scenario.
func TestScenarioDeterministic(t *testing.T) {
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cfg := scenarioTestConfig(name)
			_, a := exportScenarioBytes(t, name, cfg)
			_, b := exportScenarioBytes(t, name, cfg)
			cfg.Seed = 8
			_, c := exportScenarioBytes(t, name, cfg)
			if !bytes.Equal(a, b) {
				t.Fatal("same-seed scenario exports differ")
			}
			if bytes.Equal(a, c) {
				t.Fatal("different seeds produced identical scenarios")
			}
		})
	}
}

// TestScenarioShapes checks each scenario's structural promises: a
// marked storm phase, monotone trace offsets across the whole program,
// a contract with every bound set, and the scenario-specific shape
// (full withdraw+restore for session-reset, /24 flood+full retraction
// for route-leak, inverted storm traffic for flash-crowd, burst pacing
// for update-burst, three complete kill/stall/recover/recut cycles for
// worker-faults, two replicas with a resumable cut, an over-window cut,
// an applier stall and a collector restart for feed-partition). Only
// feed-partition replicates, and every fault list is ordered and paired.
func TestScenarioShapes(t *testing.T) {
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cfg := scenarioTestConfig(name)
			sc, err := GenScenario(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			si := sc.StormPhase()
			if si < 0 {
				t.Fatal("no storm phase")
			}
			if sc.Contract.MaxDegradedP99 <= 0 || sc.Contract.MaxDivertRate <= 0 || sc.Contract.MaxConverge <= 0 {
				t.Fatalf("incomplete contract: %+v", sc.Contract)
			}
			var prev int64 = -1
			seq := 0
			for _, ph := range sc.Phases {
				for _, u := range ph.Updates {
					if int64(u.At) < prev {
						t.Fatalf("offset goes backwards at seq %d", u.Seq)
					}
					prev = int64(u.At)
					if u.Seq != seq {
						t.Fatalf("seq %d out of order (want %d)", u.Seq, seq)
					}
					seq++
				}
			}
			storm := sc.Phases[si]
			if (sc.Replicas > 0) != (name == ScenarioFeedPartition) {
				t.Fatalf("replicas = %d", sc.Replicas)
			}
			kinds := map[FaultKind]int{}
			for _, ph := range sc.Phases {
				for i, f := range ph.Faults {
					if f.At < 0 || f.At >= len(ph.Updates) || (i > 0 && f.At < ph.Faults[i-1].At) {
						t.Fatalf("phase %s fault %d (%+v) out of order or range", ph.Name, i, f)
					}
					kinds[f.Kind]++
				}
			}
			if len(kinds) > 0 && name != ScenarioWorkerFaults && name != ScenarioFeedPartition {
				t.Fatalf("storm program carries faults: %v", kinds)
			}
			switch name {
			case ScenarioWorkerFaults:
				if kinds[FaultKill]+kinds[FaultPoison] != faultCycles || kinds[FaultPoison] == 0 ||
					kinds[FaultRecover] != faultCycles || kinds[FaultStall] != faultCycles ||
					kinds[FaultRelease] != faultCycles || kinds[FaultRecut] != faultCycles {
					t.Fatalf("fault cycles incomplete: %v", kinds)
				}
				for i := 0; i < len(storm.Faults); i += 5 {
					down, stall, up := storm.Faults[i], storm.Faults[i+1], storm.Faults[i+3]
					if up.Kind != FaultRecover || up.Target != down.Target || stall.Target != down.Target+1 {
						t.Fatalf("cycle at fault %d does not recover its own victim: %+v", i, storm.Faults[i:i+5])
					}
				}
			case ScenarioFeedPartition:
				want := map[FaultKind]int{FaultCut: 2, FaultHeal: 2, FaultStallApplier: 1, FaultReleaseApplier: 1, FaultRestartCollector: 1}
				for k, n := range want {
					if kinds[k] != n {
						t.Fatalf("fault %s scheduled %d times, want %d (%v)", k, kinds[k], n, kinds)
					}
				}
				cutAt := map[int]int{}
				for _, f := range storm.Faults {
					switch f.Kind {
					case FaultCut:
						cutAt[f.Target] = f.At
					case FaultHeal:
						if gap := f.At - cutAt[f.Target]; gap != []int{feedBriefCutOps, feedLongCutOps}[f.Target] {
							t.Fatalf("replica %d cut lasts %d ops", f.Target, gap)
						}
					case FaultRestartCollector:
						if f.At <= cutAt[1]+feedLongCutOps {
							t.Fatalf("collector restarts at %d while replica 1 is still cut", f.At)
						}
					}
				}
				if _, err := GenScenario(name, ScenarioConfig{Seed: 7, Routes: 150, StormOps: feedStormFloor - 1}); err == nil {
					t.Fatal("storm below the schedule floor accepted")
				}
			case ScenarioSessionReset:
				n := len(storm.Updates)
				if n == 0 || n%2 != 0 {
					t.Fatalf("reset storm has %d updates, want even > 0", n)
				}
				for i, u := range storm.Updates {
					wantKind := Withdraw
					if i >= n/2 {
						wantKind = Announce
					}
					if u.Kind != wantKind {
						t.Fatalf("reset storm op %d is %v", i, u.Kind)
					}
				}
				// The storm must restore exactly the table it tore down.
				down := map[ip.Prefix]bool{}
				for _, u := range storm.Updates[:n/2] {
					down[u.Prefix] = true
				}
				for _, u := range storm.Updates[n/2:] {
					if !down[u.Prefix] {
						t.Fatalf("re-announce of %s which was never withdrawn", u.Prefix)
					}
				}
			case ScenarioRouteLeak:
				n := len(storm.Updates)
				leaked := map[ip.Prefix]bool{}
				for _, u := range storm.Updates[:n/2] {
					if u.Kind != Announce || u.Prefix.Len != 24 {
						t.Fatalf("leak op is %v %s, want announce /24", u.Kind, u.Prefix)
					}
					if leaked[u.Prefix] {
						t.Fatalf("duplicate leak of %s", u.Prefix)
					}
					leaked[u.Prefix] = true
				}
				for _, u := range storm.Updates[n/2:] {
					if u.Kind != Withdraw || !leaked[u.Prefix] {
						t.Fatalf("retraction op %v %s does not match the leak", u.Kind, u.Prefix)
					}
					delete(leaked, u.Prefix)
				}
				if len(leaked) != 0 {
					t.Fatalf("%d leaked prefixes never retracted", len(leaked))
				}
			case ScenarioUpdateBurst:
				if len(storm.Updates) < 2*cfg.WarmupOps {
					t.Fatalf("burst storm only %d ops", len(storm.Updates))
				}
				gap := storm.Updates[1].At - storm.Updates[0].At
				if gap <= 0 || gap > time.Second/paperPeakPerSec {
					t.Fatalf("burst spacing %v not above the paper peak", gap)
				}
			case ScenarioFlashCrowd:
				if !storm.Traffic.Invert || storm.Traffic.Repeat <= benignTraffic.Repeat {
					t.Fatalf("flash-crowd storm traffic %+v not inverted/bursty", storm.Traffic)
				}
				if sc.Phases[0].Traffic.Invert || sc.Phases[len(sc.Phases)-1].Traffic.Invert {
					t.Fatal("non-storm phases must use benign traffic")
				}
			}
		})
	}
}

// TestScenarioExportParses: every phase section of the export reads
// back through the ribio update parser (comment headers included), and
// the whole file concatenation round-trips the full op stream.
func TestScenarioExportParses(t *testing.T) {
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			sc, raw := exportScenarioBytes(t, name, scenarioTestConfig(name))
			if sc.Ops() == 0 {
				t.Fatal("empty scenario")
			}
			recs, err := ribio.ReadUpdates(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != sc.Ops() {
				t.Fatalf("parsed %d records, scenario has %d ops", len(recs), sc.Ops())
			}
			back := FromRecords(recs)
			i := 0
			for _, ph := range sc.Phases {
				for _, u := range ph.Updates {
					if back[i].Kind != u.Kind || back[i].Prefix != u.Prefix || back[i].At != u.At {
						t.Fatalf("op %d changed in round trip: %+v -> %+v", i, u, back[i])
					}
					i++
				}
			}
			header := fmt.Sprintf("# clue scenario: name=%s seed=%d ", name, scenarioTestConfig(name).Seed)
			if !strings.HasPrefix(string(raw), header) {
				t.Fatalf("missing scenario header, got %.80s", raw)
			}
			faults := 0
			for _, ph := range sc.Phases {
				faults += len(ph.Faults)
			}
			if got := strings.Count(string(raw), "\n# fault: at="); got != faults {
				t.Fatalf("export has %d fault lines, program has %d faults", got, faults)
			}
		})
	}
}

// TestTrafficInvert pins the inversion semantics: same seed, reversed
// popularity — the non-inverted generator's modal prefix must fall far
// down the inverted generator's ranking (and the draw distributions
// must differ).
func TestTrafficInvert(t *testing.T) {
	fibRoutes := make([]ip.Prefix, 0, 64)
	for i := 0; i < 64; i++ {
		fibRoutes = append(fibRoutes, ip.MustPrefix(ip.Addr(uint32(i)<<24), 8))
	}
	count := func(invert bool) map[ip.Prefix]int {
		tr, err := NewTraffic(fibRoutes, TrafficConfig{Seed: 5, Invert: invert})
		if err != nil {
			t.Fatal(err)
		}
		c := map[ip.Prefix]int{}
		for i := 0; i < 20000; i++ {
			a := tr.Next()
			c[ip.MustPrefix(ip.Addr(uint32(a)&0xff000000), 8)]++
		}
		return c
	}
	straight, inverted := count(false), count(true)
	mode := func(c map[ip.Prefix]int) (best ip.Prefix, n int) {
		for p, k := range c {
			if k > n || (k == n && p.Compare(best) < 0) {
				best, n = p, k
			}
		}
		return
	}
	hot, hotN := mode(straight)
	if hotN < 2000 {
		t.Fatalf("zipf head too flat: mode %d/20000", hotN)
	}
	if inv := inverted[hot]; inv*10 > hotN {
		t.Fatalf("former head %s still hot after inversion: %d vs %d", hot, inv, hotN)
	}
}

// TestUpdateGenLiveRoutes: the live view matches an actual replay of
// the generated stream, and Has agrees with membership.
func TestUpdateGenLiveRoutes(t *testing.T) {
	base := []ip.Route{}
	for i := 0; i < 32; i++ {
		base = append(base, ip.Route{Prefix: ip.MustPrefix(ip.Addr(uint32(i)<<24), 8), NextHop: ip.NextHop(i%5 + 1)})
	}
	g, err := NewUpdateGen(trie.FromRoutes(base), UpdateConfig{Seed: 3, Messages: 200})
	if err != nil {
		t.Fatal(err)
	}
	mirror := trie.FromRoutes(base)
	for _, u := range g.NextN(200) {
		if u.Kind == Withdraw {
			mirror.Delete(u.Prefix, nil)
		} else {
			mirror.Insert(u.Prefix, u.Hop, nil)
		}
	}
	live := g.LiveRoutes()
	if len(live) != mirror.Len() {
		t.Fatalf("live view has %d routes, replay has %d", len(live), mirror.Len())
	}
	for _, r := range live {
		if got := mirror.Get(r.Prefix, nil); got != r.NextHop {
			t.Fatalf("live route %v, replay hop %d", r, got)
		}
		if !g.Has(r.Prefix) {
			t.Fatalf("Has(%s) = false for live prefix", r.Prefix)
		}
	}
	if g.Has(ip.MustPrefix(ip.MustParseAddr("203.0.113.0"), 30)) && mirror.Get(ip.MustPrefix(ip.MustParseAddr("203.0.113.0"), 30), nil) == ip.NoRoute {
		t.Fatal("Has reports a prefix the replay never announced")
	}
}
