// Command clue-collector runs the replication feed's source side: it
// owns the authoritative route table, tails an update trace and streams
// batched updates to follower replicas (clue-serve -follow) over the
// length-prefixed binary feed protocol, with a bounded replay window
// for reconnect-and-resume and periodic canonical-table hash frames for
// convergence verification.
//
// Usage:
//
//	clue-collector [-addr 127.0.0.1:9090]
//	               [-fib table.rib | -routes 20000] [-seed 42]
//	               [-trace updates.txt | -updates 10000]
//	               [-batch 8] [-interval 1ms] [-window 64] [-hash-every 16]
//	               [-wait-followers 0] [-linger] [-v]
//
// The base table comes from -fib (a ribio route file) or is generated
// synthetically from -seed/-routes. The update stream comes from -trace
// (a ribio update-trace file, e.g. from clue-trace -updates-out) or is
// generated from the same seed. -wait-followers N blocks streaming
// until N followers are connected; -linger keeps serving (and
// replaying nothing) after the trace ends until SIGINT/SIGTERM, so
// late followers can still bootstrap from the final table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clue/internal/feed"
	"clue/internal/fibgen"
	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "clue-collector:", err)
		os.Exit(1)
	}
}

// run builds the collector and streams the trace until done or ctx is
// cancelled. ready (optional) receives the bound listener address.
func run(ctx context.Context, args []string, out, errw io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("clue-collector", flag.ContinueOnError)
	fs.SetOutput(errw)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address for followers")
	fibPath := fs.String("fib", "", "load the base table from a ribio route file")
	nRoutes := fs.Int("routes", 20000, "synthetic base table size (when -fib unset)")
	seed := fs.Int64("seed", 42, "seed for the synthetic table and generated updates")
	tracePath := fs.String("trace", "", "replay updates from a ribio update-trace file")
	nUpdates := fs.Int("updates", 10000, "generated update count (when -trace unset)")
	batch := fs.Int("batch", 8, "updates per replicated batch")
	interval := fs.Duration("interval", time.Millisecond, "pause between batches (0 = full speed)")
	window := fs.Int("window", 64, "replay window in batches")
	hashEvery := fs.Int("hash-every", 16, "canonical-table hash frame cadence in batches")
	waitFollowers := fs.Int("wait-followers", 0, "wait for this many followers before streaming")
	linger := fs.Bool("linger", false, "keep serving after the trace ends until interrupted")
	verbose := fs.Bool("v", false, "log per-follower protocol events to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 1 {
		return errors.New("-batch must be >= 1")
	}

	routes, origin, err := loadBase(*fibPath, *nRoutes, *seed)
	if err != nil {
		return err
	}
	recs, traceOrigin, err := loadTrace(*tracePath, routes, *nUpdates, *seed)
	if err != nil {
		return err
	}

	cfg := feed.CollectorConfig{BaseRoutes: routes, Window: *window, HashEvery: *hashEvery}
	if *verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Fprintf(errw, format+"\n", args...) }
	}
	coll, err := feed.NewCollector(cfg)
	if err != nil {
		return err
	}
	defer coll.Close()
	bound, err := coll.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "clue-collector: %s, %s — %d batches of <= %d, window %d, listening on %s\n",
		origin, traceOrigin, (len(recs)+*batch-1) / *batch, *batch, *window, bound)
	if ready != nil {
		ready(bound)
	}

	if *waitFollowers > 0 {
		fmt.Fprintf(out, "clue-collector: waiting for %d followers\n", *waitFollowers)
		for coll.Stats().Followers < *waitFollowers {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	var last uint64
	for i := 0; i < len(recs); i += *batch {
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(out, "clue-collector: interrupted")
			return nil
		}
		end := min(i+*batch, len(recs))
		seq, err := coll.Apply(recs[i:end])
		if err != nil {
			return err
		}
		last = seq
		if *interval > 0 && end < len(recs) {
			select {
			case <-ctx.Done():
			case <-time.After(*interval):
			}
		}
	}

	if n := coll.Stats().Followers; n > 0 && last > 0 {
		if err := coll.WaitAcked(n, last, 30*time.Second); err != nil {
			fmt.Fprintf(out, "clue-collector: %v\n", err)
		}
	}
	st := coll.Stats()
	fmt.Fprintf(out, "clue-collector: streamed %d batches (%d records) to head %d — %d followers, %d snapshots, %d resumes\n",
		st.Batches, st.Records, st.Head, st.Followers, st.Snapshots, st.Resumes)

	if *linger {
		fmt.Fprintln(out, "clue-collector: lingering (interrupt to exit)")
		<-ctx.Done()
		fmt.Fprintln(out, "clue-collector: shutting down")
	}
	return nil
}

// loadBase resolves the base-table source: ribio file, else synthetic.
func loadBase(fibPath string, nRoutes int, seed int64) ([]ip.Route, string, error) {
	if fibPath != "" {
		f, err := os.Open(fibPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		routes, err := ribio.Read(f)
		if err != nil {
			return nil, "", err
		}
		return routes, fmt.Sprintf("fib %s (%d routes)", fibPath, len(routes)), nil
	}
	fib, err := fibgen.Generate(fibgen.Config{Seed: seed, Routes: nRoutes})
	if err != nil {
		return nil, "", err
	}
	return fib.Routes(), fmt.Sprintf("synthetic FIB (%d routes, seed %d)", nRoutes, seed), nil
}

// loadTrace resolves the update stream: ribio update-trace file, else
// generated over the base table with the same seed.
func loadTrace(tracePath string, base []ip.Route, nUpdates int, seed int64) ([]ribio.UpdateRecord, string, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		recs, err := ribio.ReadUpdates(f)
		if err != nil {
			return nil, "", err
		}
		return recs, fmt.Sprintf("trace %s (%d updates)", tracePath, len(recs)), nil
	}
	g, err := tracegen.NewUpdateGen(trie.FromRoutes(base), tracegen.UpdateConfig{Seed: seed, Messages: nUpdates})
	if err != nil {
		return nil, "", err
	}
	return tracegen.Records(g.NextN(nUpdates)), fmt.Sprintf("generated trace (%d updates, seed %d)", nUpdates, seed), nil
}
