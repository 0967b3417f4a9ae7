package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

// The update stream's mix is the one the repo's own update benchmarks use
// (bench_test.go: benchUpdates), so feed numbers here and there describe
// the same churn.
const (
	withdrawFrac  = 0.3
	newPrefixFrac = 0.55
)

// inputs is everything a workload is handed: the generated FIB, the
// reader's address pool with its expected answers, and the update stream.
// All of it derives from the seed; the program under test sees only these
// values (a ribio file for the child, slices for in-process runtimes).
type inputs struct {
	seed   int64
	routes []ip.Route // the generated FIB, uncompressed

	pool   []ip.Addr     // addresses the readers cycle through
	exp    []ip.NextHop  // expected hop per pool address, on the base FIB
	expLen []uint8       // length of the base FIB prefix that matched (0: none)
	vol    []atomic.Bool // pool addresses already seen to change under churn
	batch  int           // addresses per reader call

	oracle *oracle
	gen    *tracegen.UpdateGen
	digest string
}

// makeInputs generates one workload's inputs. cold selects the address
// pool: uniform over routes (every probe lands in a different corner of
// the table) instead of Zipf(1.2) over prefixes.
func makeInputs(seed int64, nRoutes, poolSize, batch int, cold bool) (*inputs, error) {
	fib, err := fibgen.Generate(fibgen.Config{Seed: seed, Routes: nRoutes})
	if err != nil {
		return nil, fmt.Errorf("fibgen: %w", err)
	}
	in := &inputs{seed: seed, routes: fib.Routes(), batch: batch}

	if cold {
		in.pool = coldPool(in.routes, seed, poolSize)
	} else if in.pool, err = zipfPool(in.routes, seed, poolSize); err != nil {
		return nil, err
	}

	// The oracle is an independent LPM over the generated FIB: a second
	// trie built from the route list, never shared with the program.
	in.oracle = newOracle(in.routes)
	in.exp = make([]ip.NextHop, len(in.pool))
	in.expLen = make([]uint8, len(in.pool))
	in.vol = make([]atomic.Bool, len(in.pool))
	for i, a := range in.pool {
		hop, pfx := in.oracle.ref.Lookup(a, nil)
		in.exp[i] = hop
		if hop != ip.NoRoute {
			in.expLen[i] = pfx.Len
		}
	}

	in.gen, err = tracegen.NewUpdateGen(fib, tracegen.UpdateConfig{
		Seed: seed, WithdrawFrac: withdrawFrac, NewPrefixFrac: newPrefixFrac, Messages: 1 << 20,
	})
	if err != nil {
		return nil, fmt.Errorf("tracegen updates: %w", err)
	}

	h := sha256.New()
	var b [9]byte
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	h.Write(b[:8])
	for _, r := range in.routes {
		binary.BigEndian.PutUint32(b[:4], uint32(r.Prefix.Bits))
		b[4] = r.Prefix.Len
		binary.BigEndian.PutUint32(b[5:9], uint32(r.NextHop))
		h.Write(b[:9])
	}
	for _, a := range in.pool {
		binary.BigEndian.PutUint32(b[:4], uint32(a))
		h.Write(b[:4])
	}
	in.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return in, nil
}

// zipfPool draws n addresses Zipf(1.2) over the routes' prefixes.
func zipfPool(routes []ip.Route, seed int64, n int) ([]ip.Addr, error) {
	tr, err := tracegen.NewTraffic(tracegen.PrefixesFromRoutes(routes), tracegen.TrafficConfig{Seed: seed, ZipfS: 1.2})
	if err != nil {
		return nil, fmt.Errorf("tracegen traffic: %w", err)
	}
	return tr.NextN(n), nil
}

// coldPool draws n addresses uniformly over routes: each lands in a
// random route, at a random offset inside it.
func coldPool(routes []ip.Route, seed int64, n int) []ip.Addr {
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	pool := make([]ip.Addr, n)
	for i := range pool {
		p := routes[rnd.Intn(len(routes))].Prefix
		span := uint64(p.Last()-p.First()) + 1
		pool[i] = p.First() + ip.Addr(rnd.Int63n(int64(span)))
	}
	return pool
}

// nextBatch draws the next n update records from the stream.
func (in *inputs) nextBatch(n int) []ribio.UpdateRecord {
	return tracegen.Records(in.gen.NextN(n))
}

// oracle is the harness's own model of the table: a reference trie it
// updates itself, in step with the update stream it sends, plus the set
// of prefixes the stream has touched so far.
//
// Readers run while the table churns, so an answer that differs from the
// base expectation is right exactly when the address lies under a touched
// prefix at least as long as its base match — any change to the
// forwarding function at that address must have gone through such a
// prefix. Readers take the read lock only on a mismatch; the one update
// sender takes the write lock once per batch.
type oracle struct {
	ref *trie.Trie

	mu      sync.RWMutex
	touched map[ip.Prefix]struct{}
}

func newOracle(routes []ip.Route) *oracle {
	return &oracle{ref: trie.FromRoutes(routes), touched: make(map[ip.Prefix]struct{})}
}

// probe names an address whose answer a batch changes, and the answer
// after the batch: the first lookup returning want proves the batch is
// visible.
type probe struct {
	addr ip.Addr
	want ip.NextHop
	ok   bool // false: the batch changes no answer this harness can observe
}

// apply folds one batch into the reference trie and returns a visibility
// probe for it. Only the update sender calls it, before sending the
// batch, so the touched set always runs ahead of the system.
func (o *oracle) apply(recs []ribio.UpdateRecord) probe {
	o.mu.Lock()
	defer o.mu.Unlock()
	type cand struct {
		addr   ip.Addr
		before ip.NextHop
	}
	cands := make([]cand, 0, 2*len(recs))
	for _, r := range recs {
		for _, a := range [2]ip.Addr{r.Prefix.First(), r.Prefix.Last()} {
			hop, _ := o.ref.Lookup(a, nil)
			cands = append(cands, cand{a, hop})
		}
		o.touched[r.Prefix] = struct{}{}
	}
	for _, r := range recs {
		if r.Withdraw {
			o.ref.Delete(r.Prefix, nil)
		} else {
			o.ref.Insert(r.Prefix, r.NextHop, nil)
		}
	}
	// Prefer the last record: batches apply in order, so its visibility
	// implies the whole batch's.
	for i := len(cands) - 1; i >= 0; i-- {
		if after, _ := o.ref.Lookup(cands[i].addr, nil); after != cands[i].before {
			return probe{addr: cands[i].addr, want: after, ok: true}
		}
	}
	return probe{}
}

// current is the reference answer for addr after every batch applied so
// far.
func (o *oracle) current(addr ip.Addr) ip.NextHop {
	o.mu.RLock()
	defer o.mu.RUnlock()
	hop, _ := o.ref.Lookup(addr, nil)
	return hop
}

// excused reports whether a reader answer for addr that differs from the
// base expectation is explained by the update stream so far.
func (o *oracle) excused(addr ip.Addr, baseLen uint8) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for l := int(baseLen); l <= ip.AddrBits; l++ {
		if _, hit := o.touched[ip.MustPrefix(addr, l)]; hit {
			return true
		}
	}
	return false
}

// check verifies one reader answer against the base expectation, or
// failing that against the touched rule; it returns false for a wrong
// hop. An address excused once is flagged, so a hot address under churn
// does not send every later call through the lock.
func (in *inputs) check(poolIdx int, got ip.NextHop, st *readStats) bool {
	if got == in.exp[poolIdx] {
		return true
	}
	if in.vol[poolIdx].Load() || in.oracle.excused(in.pool[poolIdx], in.expLen[poolIdx]) {
		in.vol[poolIdx].Store(true)
		st.excused++
		return true
	}
	return false
}
