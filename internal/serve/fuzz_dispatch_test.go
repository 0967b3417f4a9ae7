package serve

import (
	"math/rand"
	"testing"

	"clue/internal/ip"
)

// FuzzDispatchBatch is the differential test for the worker path:
// whatever the batch — empty, duplicated addresses, route boundaries,
// arbitrary addresses — and whatever the partition layout — one to five
// workers, optionally one failed — every Result DispatchBatch returns,
// and every Result Dispatch returns for the batch's first
// maxSingleDispatches addresses, must carry the snapshot's answer and
// provenance: Hop, Prefix and Found as Snapshot.Lookup gives them, Home
// as Snapshot.Home gives it, served by the home worker unless diverted,
// and the snapshot's version. Batch addresses come from the raw bytes
// (4 per address) and, past those, from the seeded RNG: a fresh address,
// a route's first address, or a repeat of an earlier batch entry.
func FuzzDispatchBatch(f *testing.F) {
	const maxSingleDispatches = 64
	_, routes := testRoutes(f, 3000, 71)
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), []byte{})
	f.Add(int64(2), uint8(3), uint8(0), uint16(1000), []byte{10, 0, 0, 1, 10, 0, 0, 1})
	// Worker 0 failed: its range re-homes onto the survivors.
	f.Add(int64(3), uint8(3), uint8(0x80), uint16(3000), []byte{0, 0, 0, 0, 255, 255, 255, 255})
	// The last of five workers failed; a batch smaller than a sample period.
	f.Add(int64(4), uint8(4), uint8(0x84), uint16(5), []byte{192, 168, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, workers, fail uint8, size uint16, raw []byte) {
		nw := 1 + int(workers%5)
		rt, err := New(routes, Config{Workers: nw})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if fail&0x80 != 0 && nw > 1 {
			if err := rt.FailWorker(int(fail&0x7f) % nw); err != nil {
				t.Fatal(err)
			}
		}

		rng := rand.New(rand.NewSource(seed))
		addrs := make([]ip.Addr, int(size)%3001)
		for i := range addrs {
			switch {
			case 4*i+4 <= len(raw):
				addrs[i] = ip.Addr(uint32(raw[4*i])<<24 | uint32(raw[4*i+1])<<16 | uint32(raw[4*i+2])<<8 | uint32(raw[4*i+3]))
			case i > 0 && rng.Intn(4) == 0:
				addrs[i] = addrs[rng.Intn(i)]
			case rng.Intn(2) == 0:
				addrs[i] = routes[rng.Intn(len(routes))].Prefix.First()
			default:
				addrs[i] = ip.Addr(rng.Uint32())
			}
		}

		snap := rt.Snapshot() // no updates run, so this snapshot answers every group
		out, err := rt.DispatchBatch(addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(addrs) {
			t.Fatalf("%d results for %d addresses", len(out), len(addrs))
		}
		check := func(path string, i int, a ip.Addr, res Result) {
			t.Helper()
			hop, pfx, ok := snap.Lookup(a)
			if res.Hop != hop || res.Prefix != pfx || res.Found != ok {
				t.Fatalf("%s[%d] (%s) = %d/%s/%v, snapshot %d/%s/%v", path, i, a, res.Hop, res.Prefix, res.Found, hop, pfx, ok)
			}
			if home := snap.Home(a); res.Home != home {
				t.Fatalf("%s[%d] (%s) home %d, snapshot %d", path, i, a, res.Home, home)
			}
			if !res.Diverted && res.Worker != res.Home {
				t.Fatalf("%s[%d] (%s) served by %d, home %d, not diverted", path, i, a, res.Worker, res.Home)
			}
			if res.Version != snap.Version {
				t.Fatalf("%s[%d] (%s) version %d, snapshot %d", path, i, a, res.Version, snap.Version)
			}
		}
		for i, a := range addrs {
			check("batch", i, a, out[i])
		}
		for i, a := range addrs[:min(len(addrs), maxSingleDispatches)] {
			res, err := rt.Dispatch(a)
			if err != nil {
				t.Fatal(err)
			}
			check("dispatch", i, a, res)
		}
	})
}
