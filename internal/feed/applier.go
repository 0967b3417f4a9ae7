package feed

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/serve"
	"clue/internal/trie"
)

// RuntimeApplier adapts a serve.Runtime as a follower's Applier. The
// runtime is built lazily from the first snapshot (the serve runtime
// cannot exist over an empty table), and later re-snapshots are
// reconciled through the live writer pipeline — withdraw what vanished,
// announce what changed — so readers keep serving throughout a
// resynchronisation.
type RuntimeApplier struct {
	cfg serve.Config

	mu     sync.Mutex
	mirror *trie.Trie
	rt     atomic.Pointer[serve.Runtime]
}

// NewRuntimeApplier prepares an applier that will build its runtime
// with cfg on the first snapshot. Runtime() reports nil until then.
func NewRuntimeApplier(cfg serve.Config) *RuntimeApplier {
	return &RuntimeApplier{cfg: cfg}
}

// Runtime returns the live runtime, or nil before the bootstrap
// snapshot has been applied.
func (a *RuntimeApplier) Runtime() *serve.Runtime {
	return a.rt.Load()
}

// Reset brings the runtime to exactly routes. The first call builds
// the runtime; later calls diff against the current mirror — withdraw
// what vanished, announce what changed — and send the whole
// reconciliation as one ApplyBatch, which blocks until the one snapshot
// holding it is published.
func (a *RuntimeApplier) Reset(routes []ip.Route) error {
	if len(routes) == 0 {
		return errors.New("feed: empty snapshot (runtime needs at least one route)")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rt := a.rt.Load()
	if rt == nil {
		rt, err := serve.New(routes, a.cfg)
		if err != nil {
			return fmt.Errorf("feed: bootstrap runtime: %w", err)
		}
		a.mirror = trie.FromRoutes(routes)
		a.rt.Store(rt)
		return nil
	}
	want := trie.FromRoutes(routes)
	var recs []ribio.UpdateRecord
	for _, r := range a.mirror.Routes() {
		if want.Get(r.Prefix, nil) == ip.NoRoute {
			recs = append(recs, ribio.UpdateRecord{Withdraw: true, Prefix: r.Prefix})
		}
	}
	for _, r := range routes {
		if a.mirror.Get(r.Prefix, nil) != r.NextHop {
			recs = append(recs, ribio.UpdateRecord{Prefix: r.Prefix, NextHop: r.NextHop})
		}
	}
	if len(recs) > 0 {
		if _, err := rt.ApplyBatch(recs); err != nil {
			return fmt.Errorf("feed: reconcile %d changed routes: %w", len(recs), err)
		}
	}
	a.mirror = want
	return nil
}

// Apply applies one update frame's records as one runtime batch; it
// blocks until the snapshot containing all of them is published.
func (a *RuntimeApplier) Apply(recs []ribio.UpdateRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rt := a.rt.Load()
	if rt == nil {
		return errors.New("feed: update batch before bootstrap snapshot")
	}
	if _, err := rt.ApplyBatch(recs); err != nil {
		return err
	}
	for _, u := range recs {
		if u.Withdraw {
			a.mirror.Delete(u.Prefix, nil)
		} else {
			a.mirror.Insert(u.Prefix, u.NextHop, nil)
		}
	}
	return nil
}

// CanonicalHash returns the published snapshot's canonical digest in
// O(1), without escaping its arena (0 before bootstrap).
func (a *RuntimeApplier) CanonicalHash() uint64 {
	rt := a.rt.Load()
	if rt == nil {
		return 0
	}
	return rt.TableHash()
}

// Close shuts the runtime down, if one was built.
func (a *RuntimeApplier) Close() {
	if rt := a.rt.Load(); rt != nil {
		rt.Close()
	}
}
