package onrtc

import (
	"math/rand"
	"testing"

	"clue/internal/ip"
	"clue/internal/trie"
)

// assertTableMatchesRebuild verifies the incremental invariant that makes
// ONRTC's table unique: after any update sequence the maintained table
// must be exactly the table Compress would build from scratch.
func assertTableMatchesRebuild(t *testing.T, u *Updater) {
	t.Helper()
	want := Compress(u.FIB()).Routes()
	got := u.Table().Routes()
	if len(got) != len(want) {
		t.Fatalf("incremental table has %d routes, rebuild has %d\n got: %v\nwant: %v",
			len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("route %d: incremental %v, rebuild %v", i, got[i], want[i])
		}
	}
	if d, w := u.Table().Digest(), Digest(want); d != w {
		t.Fatalf("incremental digest %016x, rebuild's routes digest to %016x", d, w)
	}
}

func TestAnnounceFreshPrefix(t *testing.T) {
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	d := u.Announce(pfx("192.0.2.0/24"), 3)
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpInsert || d.Ops[0].Route != rt("192.0.2.0/24", 3) {
		t.Errorf("ops = %v, want single insert of 192.0.2.0/24 -> 3", d.Ops)
	}
	assertTableMatchesRebuild(t, u)
}

func TestAnnounceIdempotent(t *testing.T) {
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	d := u.Announce(pfx("10.0.0.0/8"), 1)
	if len(d.Ops) != 0 {
		t.Errorf("re-announcing identical route produced ops: %v", d.Ops)
	}
	if d.Visits.Nodes == 0 {
		t.Error("re-announcement should still cost trie visits")
	}
}

func TestAnnounceHopChangeIsModify(t *testing.T) {
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	d := u.Announce(pfx("10.0.0.0/8"), 2)
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpModify || d.Ops[0].Route != rt("10.0.0.0/8", 2) {
		t.Errorf("ops = %v, want single modify to hop 2", d.Ops)
	}
	assertTableMatchesRebuild(t, u)
}

func TestAnnounceSplitsCoveringRoute(t *testing.T) {
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	d := u.Announce(pfx("10.1.0.0/16"), 2)
	// The /8 must be split: delete it, insert the /16 plus sibling
	// covers. Equivalence and minimality are what matter.
	assertTableMatchesRebuild(t, u)
	hasDelete := false
	for _, op := range d.Ops {
		if op.Kind == OpDelete && op.Route.Prefix == pfx("10.0.0.0/8") {
			hasDelete = true
		}
	}
	if !hasDelete {
		t.Errorf("expected deletion of covering /8, got %v", d.Ops)
	}
	hop, _ := u.Table().Lookup(addr("10.1.2.3"), nil)
	if hop != 2 {
		t.Errorf("post-split lookup = %d, want 2", hop)
	}
}

func TestWithdrawMergesSiblings(t *testing.T) {
	// After withdrawing the specific, the split /8 should re-merge into
	// a single route.
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1), rt("10.1.0.0/16", 2)))
	if u.Table().Len() != 9 {
		t.Fatalf("precondition: split table len = %d, want 9", u.Table().Len())
	}
	d := u.Withdraw(pfx("10.1.0.0/16"))
	assertTableMatchesRebuild(t, u)
	if u.Table().Len() != 1 {
		t.Errorf("post-withdraw table len = %d, want 1 (fully merged): %v", u.Table().Len(), u.Table().Routes())
	}
	if len(d.Ops) == 0 {
		t.Error("withdraw produced no ops")
	}
}

func TestWithdrawAbsentPrefix(t *testing.T) {
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	d := u.Withdraw(pfx("192.0.2.0/24"))
	if len(d.Ops) != 0 {
		t.Errorf("withdrawing absent prefix produced ops: %v", d.Ops)
	}
	assertTableMatchesRebuild(t, u)
}

func TestWithdrawLastRoute(t *testing.T) {
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	d := u.Withdraw(pfx("10.0.0.0/8"))
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpDelete {
		t.Errorf("ops = %v, want single delete", d.Ops)
	}
	if u.Table().Len() != 0 {
		t.Errorf("table len = %d, want 0", u.Table().Len())
	}
	assertTableMatchesRebuild(t, u)
}

func TestAnnounceRedundantSpecificNoOp(t *testing.T) {
	// Announcing a more-specific with the same hop as its cover changes
	// nothing in the forwarding function: zero TCAM ops.
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	d := u.Announce(pfx("10.1.0.0/16"), 1)
	if len(d.Ops) != 0 {
		t.Errorf("redundant announce produced ops: %v", d.Ops)
	}
	assertTableMatchesRebuild(t, u)
}

func TestMergeCascadesUpward(t *testing.T) {
	// 10.0/9 -> 1 and 10.128/9 -> 2; changing the second to 1 must merge
	// into 10/8, and if 11/8 -> 1 existed the merge must cascade to /7.
	u := BuildUpdater(buildFIB(
		rt("10.0.0.0/9", 1),
		rt("10.128.0.0/9", 2),
		rt("11.0.0.0/8", 1),
	))
	d := u.Announce(pfx("10.128.0.0/9"), 1)
	assertTableMatchesRebuild(t, u)
	if u.Table().Len() != 1 {
		t.Errorf("table len = %d, want 1 (cascaded merge to 10.0.0.0/7): %v", u.Table().Len(), u.Table().Routes())
	}
	if got := u.Table().Routes()[0]; got != rt("10.0.0.0/7", 1) {
		t.Errorf("merged route = %v, want 10.0.0.0/7 -> 1", got)
	}
	if len(d.Ops) == 0 {
		t.Error("merge produced no ops")
	}
}

func TestDiffOpsApplyCleanly(t *testing.T) {
	// Replaying the diff ops against an external copy of the compressed
	// table must land at the updater's table — this is exactly what the
	// TCAM does.
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1), rt("10.1.0.0/16", 2)))
	shadow := trie.FromRoutes(u.Table().Routes())
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		p := ip.MustPrefix(ip.Addr(rng.Uint32()&0x0FFFFFFF|0x0A000000), rng.Intn(17)+8)
		var d Diff
		if rng.Intn(3) == 0 {
			d = u.Withdraw(p)
		} else {
			d = u.Announce(p, ip.NextHop(rng.Intn(4)+1))
		}
		for _, op := range d.Ops {
			switch op.Kind {
			case OpInsert, OpModify:
				shadow.Insert(op.Route.Prefix, op.Route.NextHop, nil)
			case OpDelete:
				shadow.Delete(op.Route.Prefix, nil)
			}
		}
	}
	want := u.Table().Routes()
	got := shadow.Routes()
	if len(got) != len(want) {
		t.Fatalf("shadow has %d routes, table has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shadow route %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestIncrementalMatchesRebuildRandom is the central property test: a long
// random announce/withdraw sequence, re-verifying after every step that
// the incrementally maintained table equals the from-scratch compression
// (which implies disjointness, equivalence and minimality, since the
// from-scratch construction is unique).
func TestIncrementalMatchesRebuildRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fib := trie.New()
	// Seed table.
	for i := 0; i < 100; i++ {
		fib.Insert(ip.MustPrefix(ip.Addr(rng.Uint32()), rng.Intn(13)+8), ip.NextHop(rng.Intn(4)+1), nil)
	}
	u := BuildUpdater(fib)
	live := u.FIB().Routes()
	for step := 0; step < 400; step++ {
		var p ip.Prefix
		withdraw := rng.Intn(3) == 0 && len(live) > 0
		if withdraw {
			p = live[rng.Intn(len(live))].Prefix
			u.Withdraw(p)
		} else {
			switch rng.Intn(3) {
			case 0: // brand new prefix
				p = ip.MustPrefix(ip.Addr(rng.Uint32()), rng.Intn(17)+8)
			case 1: // near an existing route (child)
				if len(live) > 0 {
					base := live[rng.Intn(len(live))].Prefix
					if base.Len < 24 {
						p = base.Child(uint32(rng.Intn(2)))
					} else {
						p = base
					}
				} else {
					p = ip.MustPrefix(ip.Addr(rng.Uint32()), 16)
				}
			default: // existing prefix, possibly new hop
				if len(live) > 0 {
					p = live[rng.Intn(len(live))].Prefix
				} else {
					p = ip.MustPrefix(ip.Addr(rng.Uint32()), 16)
				}
			}
			u.Announce(p, ip.NextHop(rng.Intn(4)+1))
		}
		if step%20 == 0 || step > 380 {
			assertTableMatchesRebuild(t, u)
		}
		live = u.FIB().Routes()
	}
	assertTableMatchesRebuild(t, u)
	assertMinimal(t, u.Table())
	assertEquivalent(t, u.FIB(), u.Table(), randomProbes(u.FIB(), 2000, 5))
}

func TestUpdateVisitsAccounted(t *testing.T) {
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	d := u.Announce(pfx("10.1.0.0/16"), 2)
	if d.Visits.Nodes == 0 {
		t.Error("announce reported zero trie visits")
	}
	d = u.Withdraw(pfx("10.1.0.0/16"))
	if d.Visits.Nodes == 0 {
		t.Error("withdraw reported zero trie visits")
	}
}

func TestNewUpdaterWrapsExisting(t *testing.T) {
	fib := buildFIB(rt("10.0.0.0/8", 1))
	table := Compress(fib)
	u := NewUpdater(fib, table)
	u.Announce(pfx("11.0.0.0/8"), 2)
	assertTableMatchesRebuild(t, u)
}

func TestDefaultRouteUpdates(t *testing.T) {
	// Updates at /0 exercise the whole-table region paths.
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1), rt("192.0.2.0/24", 2)))
	u.Announce(ip.Prefix{}, 7)
	assertTableMatchesRebuild(t, u)
	hop, _ := u.Table().Lookup(addr("8.8.8.8"), nil)
	if hop != 7 {
		t.Errorf("default-route lookup = %d, want 7", hop)
	}
	hop, _ = u.Table().Lookup(addr("10.1.1.1"), nil)
	if hop != 1 {
		t.Errorf("specific still wins: %d, want 1", hop)
	}
	u.Withdraw(ip.Prefix{})
	assertTableMatchesRebuild(t, u)
	hop, _ = u.Table().Lookup(addr("8.8.8.8"), nil)
	if hop != ip.NoRoute {
		t.Errorf("post-withdraw default lookup = %d, want NoRoute", hop)
	}
}

func TestHostRouteUpdates(t *testing.T) {
	u := BuildUpdater(buildFIB(rt("10.0.0.0/8", 1)))
	u.Announce(pfx("10.1.2.3/32"), 2)
	assertTableMatchesRebuild(t, u)
	hop, _ := u.Table().Lookup(addr("10.1.2.3"), nil)
	if hop != 2 {
		t.Errorf("host-route lookup = %d", hop)
	}
	u.Withdraw(pfx("10.1.2.3/32"))
	assertTableMatchesRebuild(t, u)
	if u.Table().Len() != 1 {
		t.Errorf("table len = %d, want fully re-merged 1", u.Table().Len())
	}
}
