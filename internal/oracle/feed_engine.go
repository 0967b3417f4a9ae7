package oracle

import (
	"fmt"
	"net"
	"time"

	"clue/internal/feed"
	"clue/internal/ip"
	"clue/internal/onrtc"
	"clue/internal/ribio"
	"clue/internal/serve"
)

// feedEngine is a replicated deployment under differential test: every
// mutation goes through a real collector, over a localhost TCP stream,
// into a follower applying it to its own serve runtime. The engine
// waits for the follower to ack each batch before returning, so the
// driver's per-step probes run against a converged replica — any wire,
// resume or reconciliation bug shows up as a divergence from the model
// like any other engine's.
type feedEngine struct {
	coll  *feed.Collector
	app   *feed.RuntimeApplier
	fl    *feed.Follower
	calls int
}

// feedOpTimeout bounds one replicated batch end to end (TCP roundtrip
// plus a blocking apply); generous because CI runs under -race.
const feedOpTimeout = 30 * time.Second

func newFeedEngine(cfg Config, routes []ip.Route) (Engine, error) {
	coll, err := feed.NewCollector(feed.CollectorConfig{BaseRoutes: routes})
	if err != nil {
		return nil, err
	}
	if _, err := coll.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	app := feed.NewRuntimeApplier(serve.Config{Workers: cfg.Workers})
	fl, err := feed.NewFollower(feed.FollowerConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", coll.Addr().String(), time.Second)
		},
		Applier: app,
	})
	if err != nil {
		coll.Close()
		app.Close()
		return nil, err
	}
	e := &feedEngine{coll: coll, app: app, fl: fl}
	// Block until the bootstrap snapshot built the runtime — the driver
	// probes immediately after construction.
	deadline := time.Now().Add(feedOpTimeout)
	for app.Runtime() == nil {
		if time.Now().After(deadline) {
			e.Close()
			return nil, fmt.Errorf("follower never bootstrapped within %s", feedOpTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return e, nil
}

func (e *feedEngine) Name() string   { return "feed" }
func (e *feedEngine) Stepwise() bool { return true }

func (e *feedEngine) Close() {
	e.fl.Close()
	e.coll.Close()
	e.app.Close()
}

// replicate ships one update as a single-record batch and waits for the
// follower to apply it (and its runtime to publish it).
func (e *feedEngine) replicate(rec ribio.UpdateRecord) error {
	seq, err := e.coll.Apply([]ribio.UpdateRecord{rec})
	if err != nil {
		return err
	}
	return e.fl.WaitSeq(seq, feedOpTimeout)
}

func (e *feedEngine) Announce(p ip.Prefix, hop ip.NextHop) error {
	return e.replicate(ribio.UpdateRecord{Prefix: p, NextHop: hop})
}

func (e *feedEngine) Withdraw(p ip.Prefix) error {
	return e.replicate(ribio.UpdateRecord{Withdraw: true, Prefix: p})
}

func (e *feedEngine) Lookup(addr ip.Addr) (Answer, error) {
	rt := e.app.Runtime()
	hop, _, ok := rt.Lookup(addr)
	e.calls++
	if e.calls%4 == 0 {
		res, err := rt.Dispatch(addr)
		if err != nil {
			return Answer{}, fmt.Errorf("dispatch %s: %w", addr, err)
		}
		if res.Found != ok || (ok && res.Hop != hop) {
			return Answer{}, fmt.Errorf("replica dispatch diverged from snapshot at %s: worker %d said hop %d found %v, snapshot hop %d found %v",
				addr, res.Worker, res.Hop, res.Found, hop, ok)
		}
	}
	return Answer{Hop: hop, Found: ok}, nil
}

func (e *feedEngine) LookupBatch(addrs []ip.Addr) ([]Answer, error) {
	results, err := e.app.Runtime().DispatchBatch(addrs, nil)
	if err != nil {
		return nil, fmt.Errorf("dispatch batch: %w", err)
	}
	out := make([]Answer, len(results))
	for i, r := range results {
		out[i] = Answer{Hop: r.Hop, Found: r.Found}
	}
	return out, nil
}

func (e *feedEngine) FailWorker(id int) error {
	return ignoreStateRefusal(e.app.Runtime().FailWorker(id))
}

func (e *feedEngine) RecoverWorker(id int) error {
	return ignoreStateRefusal(e.app.Runtime().RecoverWorker(id))
}

func (e *feedEngine) Flush() error { return e.app.Runtime().Republish() }

// Check asserts replication-specific invariants on top of the table
// dump the driver already cross-compares: the stream never detected a
// hash divergence, the follower is exactly at the collector's head,
// and the replica's published table is structurally sound.
func (e *feedEngine) Check(*Model) error {
	s := e.fl.Stats()
	if s.HashMismatches != 0 {
		return fmt.Errorf("replica hash mismatches: %d", s.HashMismatches)
	}
	if head := e.coll.Head(); s.LastApplied != head {
		return fmt.Errorf("replica at batch %d, collector head %d", s.LastApplied, head)
	}
	return onrtc.VerifyDisjoint(e.app.Runtime().Snapshot().Routes())
}

func (e *feedEngine) TableRoutes() []ip.Route { return e.app.Runtime().Snapshot().Routes() }
