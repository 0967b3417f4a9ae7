package onrtc

import (
	"testing"

	"clue/internal/ip"
	"clue/internal/trie"
)

// FuzzUpdaterMatchesRebuild drives the updater with a fuzz-chosen
// operation sequence and re-checks the central invariant: the
// incrementally maintained compressed table is byte-for-byte the one a
// from-scratch compression would build, and so is its O(1) digest.
func FuzzUpdaterMatchesRebuild(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 8, 1, 2, 10, 0, 0, 0, 16, 2})
	f.Add([]byte{0, 255, 255, 0, 0, 24, 3})
	// Re-announce 10.0.0.0/8 with hop 2: an in-place modify.
	f.Add([]byte{0, 10, 0, 0, 0, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fib := trie.New()
		fib.Insert(ip.MustParsePrefix("10.0.0.0/8"), 1, nil)
		u := BuildUpdater(fib)
		// Each op consumes 7 bytes: kind, 4 addr bytes, length, hop.
		for len(data) >= 7 {
			kind := data[0]
			addr := ip.Addr(uint32(data[1])<<24 | uint32(data[2])<<16 | uint32(data[3])<<8 | uint32(data[4]))
			length := int(data[5]) % 33
			hop := ip.NextHop(data[6]%8 + 1)
			data = data[7:]
			p := ip.MustPrefix(addr, length)
			if kind%2 == 0 {
				u.Announce(p, hop)
			} else {
				u.Withdraw(p)
			}
		}
		rebuilt := Compress(u.FIB())
		if got, want := u.Table().Digest(), Digest(rebuilt.Routes()); got != want {
			t.Fatalf("incremental digest %016x, rebuild's routes digest to %016x", got, want)
		}
		if got, want := rebuilt.Digest(), Digest(rebuilt.Routes()); got != want {
			t.Fatalf("Compress seeded digest %016x, its routes digest to %016x", got, want)
		}
		want := rebuilt.Routes()
		got := u.Table().Routes()
		if len(got) != len(want) {
			t.Fatalf("incremental table has %d routes, rebuild %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("route %d: incremental %v, rebuild %v", i, got[i], want[i])
			}
		}
	})
}
