package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"clue/internal/feed"
	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/serve"
)

// feedWindow is the collector's replay window on the feed workloads, deep
// enough that the saturated stream's pipelining is never what trims the
// log (BenchmarkFeedThroughput uses the same value).
const feedWindow = 1024

// topology is one way of standing the system up, seen from outside: a
// control plane to send updates into and a serving side to ask. The three
// implementations are the three users the benchmark serves — an HTTP
// client of clue-serve, an embedder of serve.Runtime, and a collector
// feeding a replica.
type topology interface {
	// submit hands one ordered batch to the control plane and returns a
	// token for await. Synchronous control planes apply before returning.
	submit(recs []ribio.UpdateRecord) (uint64, error)
	// await blocks until the batch behind token is applied on the
	// serving side.
	await(token uint64) error
	// lookup asks the serving side's snapshot path for one address.
	lookup(a ip.Addr) (ip.NextHop, error)
	// stats is the serving runtime's public Stats().
	stats() (serve.Stats, error)
	// servingPid is the process whose memory is the serving footprint;
	// childPid is non-zero when that is not this process, so its CPU must
	// be added to the harness's own.
	servingPid() int
	childPid() int
	close() error
}

// --- embedder: serve.Runtime in this process ---------------------------

type inprocTopo struct{ rt *serve.Runtime }

func startInproc(routes []ip.Route) (*inprocTopo, error) {
	rt, err := serve.New(routes, serve.Config{})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	return &inprocTopo{rt: rt}, nil
}

func applyToRuntime(rt *serve.Runtime, recs []ribio.UpdateRecord) error {
	for _, r := range recs {
		var err error
		if r.Withdraw {
			_, err = rt.Withdraw(r.Prefix)
		} else {
			_, err = rt.Announce(r.Prefix, r.NextHop)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *inprocTopo) submit(recs []ribio.UpdateRecord) (uint64, error) {
	return 0, applyToRuntime(t.rt, recs)
}
func (t *inprocTopo) await(uint64) error { return nil }
func (t *inprocTopo) lookup(a ip.Addr) (ip.NextHop, error) {
	hop, _, _ := t.rt.Lookup(a)
	return hop, nil
}
func (t *inprocTopo) stats() (serve.Stats, error) { return t.rt.Stats(), nil }
func (t *inprocTopo) servingPid() int             { return os.Getpid() }
func (t *inprocTopo) childPid() int               { return 0 }
func (t *inprocTopo) close() error                { t.rt.Close(); return nil }

// --- HTTP client of a child clue-serve ---------------------------------

type httpTopo struct {
	child *child
	hc    *httpClient
	buf   bytes.Buffer // control-plane requests come from one goroutine
}

// startHTTPFromFile execs clue-serve on a ribio FIB file (every other
// flag at its shipped default) and waits for /healthz.
func startHTTPFromFile(ctx context.Context, serveBin, fibPath string, conns int) (*httpTopo, error) {
	c, err := startChild(ctx, serveBin, "-fib", fibPath, "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &httpTopo{child: c, hc: newHTTPClient(c.addr, conns)}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := t.hc.healthz()
		if err == nil {
			return t, nil
		}
		if time.Now().After(deadline) || !c.alive() {
			t.close()
			return nil, fmt.Errorf("clue-serve never became healthy: %v\n%s", err, c.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (t *httpTopo) submit(recs []ribio.UpdateRecord) (uint64, error) {
	for _, r := range recs {
		if err := t.hc.update(r, &t.buf); err != nil {
			return 0, err
		}
	}
	return 0, nil
}
func (t *httpTopo) await(uint64) error { return nil }
func (t *httpTopo) lookup(a ip.Addr) (ip.NextHop, error) {
	var buf bytes.Buffer
	return t.hc.lookupOne(a, true, &buf)
}
func (t *httpTopo) stats() (serve.Stats, error) { return t.hc.stats() }
func (t *httpTopo) servingPid() int             { return t.child.pid }
func (t *httpTopo) childPid() int               { return t.child.pid }
func (t *httpTopo) close() error {
	t.hc.close()
	return t.child.shutdown()
}

// --- collector feeding a replica over loopback TCP ---------------------

type feedTopo struct {
	coll *feed.Collector
	fl   *feed.Follower
	app  *feed.RuntimeApplier
	rt   *serve.Runtime // the follower's runtime, once bootstrapped
	wire *frameTap
}

// startFeed builds collector → loopback TCP → follower + RuntimeApplier
// and returns once the snapshot bootstrap has produced the replica's
// runtime.
func startFeed(ctx context.Context, routes []ip.Route) (*feedTopo, error) {
	coll, err := feed.NewCollector(feed.CollectorConfig{BaseRoutes: routes, Window: feedWindow})
	if err != nil {
		return nil, fmt.Errorf("feed.NewCollector: %w", err)
	}
	addr, err := coll.Listen("127.0.0.1:0")
	if err != nil {
		coll.Close()
		return nil, err
	}
	t := &feedTopo{coll: coll, app: feed.NewRuntimeApplier(serve.Config{}), wire: &frameTap{}}
	t.fl, err = feed.NewFollower(feed.FollowerConfig{
		Dial: func() (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr.String(), time.Second)
			if err != nil {
				return nil, err
			}
			return &tappedConn{Conn: nc, tap: t.wire}, nil
		},
		Applier: t.app,
	})
	if err != nil {
		coll.Close()
		return nil, fmt.Errorf("feed.NewFollower: %w", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for t.app.Runtime() == nil {
		if ctx.Err() != nil || time.Now().After(deadline) {
			t.close()
			return nil, errors.New("follower did not bootstrap from the collector's snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	t.rt = t.app.Runtime()
	return t, nil
}

func (t *feedTopo) submit(recs []ribio.UpdateRecord) (uint64, error) { return t.coll.Apply(recs) }
func (t *feedTopo) await(seq uint64) error                           { return t.fl.WaitSeq(seq, 30*time.Second) }
func (t *feedTopo) lookup(a ip.Addr) (ip.NextHop, error) {
	hop, _, _ := t.rt.Lookup(a)
	return hop, nil
}
func (t *feedTopo) stats() (serve.Stats, error) { return t.rt.Stats(), nil }
func (t *feedTopo) servingPid() int             { return os.Getpid() }
func (t *feedTopo) childPid() int               { return 0 }
func (t *feedTopo) close() error {
	t.fl.Close()
	t.app.Close()
	// Let the collector notice the follower has gone before closing it: its
	// sender re-reads the closed flag outside the lock on the other path,
	// which the race detector rightly reports.
	for deadline := time.Now().Add(time.Second); t.coll.Stats().Followers > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return t.coll.Close()
}
