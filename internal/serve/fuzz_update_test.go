package serve

import (
	"errors"
	"math/rand"
	"testing"

	"clue/internal/ip"
	"clue/internal/trie"
)

// FuzzRuntimeUpdate is the differential test for the write path: random
// announce/withdraw/lookup interleavings — including worker fail/recover
// transitions — driven through a live Runtime must always agree with a
// mirror trie oracle. It complements the read-only FuzzSnapshotIndex.
// The raw bytes decode to 6-byte (opcode, address, prefix-length)
// records; Announce/Withdraw's completion guarantee (the snapshot
// containing the op is published before the call returns) is what makes
// the oracle comparison exact at every step. After every update and
// every fail/recover rehome the published snapshot's O(1) digest must
// equal the one its routes recompute to, whichever publication path —
// structural, hop-only in place, rehome — produced it.
func FuzzRuntimeUpdate(f *testing.F) {
	f.Add(int64(1), []byte{})
	// announce, lookup, withdraw, lookup on one prefix.
	f.Add(int64(2), []byte{
		0, 192, 168, 0, 0, 16,
		4, 192, 168, 0, 7, 0,
		3, 192, 168, 0, 0, 16,
		4, 192, 168, 0, 7, 0,
	})
	// fail worker, announce under degraded mode, recover, batch check.
	f.Add(int64(3), []byte{
		5, 0, 0, 0, 1, 0,
		0, 10, 1, 0, 0, 24,
		4, 10, 1, 0, 9, 0,
		6, 0, 0, 0, 1, 0,
		7, 10, 1, 0, 9, 0,
	})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 6*512 {
			raw = raw[:6*512]
		}
		const workers = 3
		// Base FIB of disjoint /8s: gives lookups something to hit from
		// op 0.
		base := []ip.Route{
			{Prefix: ip.MustParsePrefix("10.0.0.0/8"), NextHop: 1},
			{Prefix: ip.MustParsePrefix("20.0.0.0/8"), NextHop: 2},
			{Prefix: ip.MustParsePrefix("30.0.0.0/8"), NextHop: 3},
			{Prefix: ip.MustParsePrefix("40.0.0.0/8"), NextHop: 4},
		}
		mirror := trie.New()
		for _, r := range base {
			mirror.Insert(r.Prefix, r.NextHop, nil)
		}
		rt, err := New(base, Config{Workers: workers, QueueDepth: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()

		rng := rand.New(rand.NewSource(seed))
		check := func(a ip.Addr) {
			t.Helper()
			// Compare next hops, not matched prefixes: compression merges a
			// more-specific into its cover when the hops agree, so the
			// compressed table may answer with a shorter prefix than the trie.
			want, _ := mirror.Lookup(a, nil)
			hop, pfx, ok := rt.Lookup(a)
			if ok != (want != ip.NoRoute) || (ok && hop != want) {
				t.Fatalf("Lookup(%s) = %d/%s/%v, oracle %d", a, hop, pfx, ok, want)
			}
			res, err := rt.Dispatch(a)
			if err != nil {
				t.Fatalf("Dispatch(%s): %v", a, err)
			}
			if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
				t.Fatalf("Dispatch(%s) = %+v, oracle %d", a, res, want)
			}
		}

		checkDigest := func() {
			t.Helper()
			if stamped, want := publishedDigest(rt); stamped != want {
				t.Fatalf("published digest %016x, its routes digest to %016x", stamped, want)
			}
		}

		for i := 0; i+6 <= len(raw); i += 6 {
			op := raw[i] % 8
			a := ip.Addr(uint32(raw[i+1])<<24 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<8 | uint32(raw[i+4]))
			p, err := ip.NewPrefix(a, int(raw[i+5])%33)
			if err != nil {
				t.Fatal(err)
			}
			switch op {
			case 0, 1, 2: // announce
				hop := ip.NextHop(int(raw[i])%14 + 1)
				if _, err := rt.Announce(p, hop); err == nil {
					mirror.Insert(p, hop, nil)
				}
				checkDigest()
				check(p.First())
				check(p.Last())
			case 3: // withdraw (absent prefixes are no-ops on both sides)
				if _, err := rt.Withdraw(p); err == nil {
					mirror.Delete(p, nil)
				}
				checkDigest()
				check(p.First())
				check(p.Last())
			case 4: // point lookups
				check(a)
				check(ip.Addr(rng.Uint32()))
			case 5: // fail a worker; refusals (last healthy, already down) are expected
				if err := rt.FailWorker(int(a) % workers); err != nil && !errors.Is(err, ErrWorkerState) {
					t.Fatalf("FailWorker: %v", err)
				}
				checkDigest()
			case 6: // recover a worker; refusing a healthy one is expected
				if err := rt.RecoverWorker(int(a) % workers); err != nil && !errors.Is(err, ErrWorkerState) {
					t.Fatalf("RecoverWorker: %v", err)
				}
				checkDigest()
			case 7: // batch lookup across random probes
				addrs := []ip.Addr{a, ip.Addr(rng.Uint32()), ip.Addr(rng.Uint32()), p.Last()}
				out, err := rt.DispatchBatch(addrs, nil)
				if err != nil {
					t.Fatalf("DispatchBatch: %v", err)
				}
				for j, res := range out {
					want, _ := mirror.Lookup(addrs[j], nil)
					if res.Found != (want != ip.NoRoute) || (res.Found && res.Hop != want) {
						t.Fatalf("DispatchBatch[%d](%s) = %+v, oracle %d", j, addrs[j], res, want)
					}
				}
			}
		}

		// Final sweep: every compressed route boundary plus random probes.
		snap := rt.Snapshot()
		for _, r := range snap.Routes() {
			check(r.Prefix.First())
			check(r.Prefix.Last())
		}
		for i := 0; i < 32; i++ {
			check(ip.Addr(rng.Uint32()))
		}
	})
}
