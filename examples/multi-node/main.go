// Multi-node: the replicated deployment in one process — a collector
// streams a seeded BGP-style update trace over real localhost TCP to
// two follower replicas, each applying it to its own serve runtime
// through the writer pipeline. Mid-stream, one replica's link is cut
// and redialled so the resume path runs for real. At the end the
// convergence guarantee is checked the same way the protocol checks it
// continuously: the canonical compressed tables of both replicas hash
// identically to the collector's.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"clue/internal/feed"
	"clue/internal/fibgen"
	"clue/internal/onrtc"
	"clue/internal/serve"
	"clue/internal/tracegen"
	"clue/internal/trie"
)

const (
	tableSize = 8000
	updates   = 2000
	batchSize = 8
)

func main() {
	fib, err := fibgen.Generate(fibgen.Config{Seed: 2024, Routes: tableSize})
	if err != nil {
		log.Fatal(err)
	}

	coll, err := feed.NewCollector(feed.CollectorConfig{
		BaseRoutes: fib.Routes(),
		Window:     64,
		HashEvery:  16,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coll.Close()
	addr, err := coll.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collector: %d routes, feeding on %s\n", tableSize, addr)

	follower := func(name string) (*feed.Follower, *feed.RuntimeApplier) {
		app := feed.NewRuntimeApplier(serve.Config{Workers: 2})
		fl, err := feed.NewFollower(feed.FollowerConfig{
			Dial: func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr.String(), time.Second)
			},
			Applier: app,
		})
		if err != nil {
			log.Fatal(err)
		}
		for app.Runtime() == nil {
			time.Sleep(time.Millisecond)
		}
		fmt.Printf("replica %s: bootstrapped from snapshot, %d compressed routes\n",
			name, rtRoutes(app))
		return fl, app
	}
	flA, appA := follower("A")
	defer flA.Close()
	flB, appB := follower("B")
	defer flB.Close()

	// A seeded, self-consistent update trace — the same generator the
	// benchmarks and the chaos harness replay.
	gen, err := tracegen.NewUpdateGen(fib.Clone(), tracegen.UpdateConfig{Seed: 2024, Messages: updates})
	if err != nil {
		log.Fatal(err)
	}
	recs := tracegen.Records(gen.NextN(updates))

	// Stream in lockstep with the replicas (a real collector tails a
	// live feed; replaying a file full-speed would just outrun the
	// replay window). A third of the way in, cut replica A's link: it
	// reconnects with backoff and resumes from its last acked sequence
	// — no snapshot needed while the window still covers the gap.
	cutAt := len(recs) / batchSize / 3
	var last uint64
	for nb, i := 0, 0; i < len(recs); nb, i = nb+1, i+batchSize {
		end := min(i+batchSize, len(recs))
		if last, err = coll.Apply(recs[i:end]); err != nil {
			log.Fatal(err)
		}
		if err := flB.WaitSeq(last, 30*time.Second); err != nil {
			log.Fatal(err)
		}
		// Leave A disconnected for a few batches so the resume has a
		// real gap to replay, then wait for it to catch back up.
		if nb < cutAt || nb > cutAt+4 {
			if err := flA.WaitSeq(last, 30*time.Second); err != nil {
				log.Fatal(err)
			}
		}
		if nb == cutAt {
			flA.BreakConn()
			fmt.Printf("link cut: replica A dropped at seq %d\n", last)
		}
	}

	// The proof: both replicas' published snapshots carry the digest of
	// the canonical compressed form of the collector's mirror, recomputed
	// here from scratch.
	want := feed.CanonicalHash(onrtc.Compress(trie.FromRoutes(coll.Routes())).Routes())
	hashA := appA.CanonicalHash()
	hashB := appB.CanonicalHash()
	fmt.Printf("\ncanonical table hash: collector %016x, A %016x, B %016x\n", want, hashA, hashB)
	if hashA != want || hashB != want {
		log.Fatal("replicas diverged")
	}

	sA, sB := flA.Stats(), flB.Stats()
	fmt.Printf("replica A: %d batches, %d resumes, %d snapshot loads, %d hash checks (%d mismatches)\n",
		sA.Batches, sA.Resumes, sA.SnapshotLoads, sA.HashChecks, sA.HashMismatches)
	fmt.Printf("replica B: %d batches, %d resumes, %d snapshot loads, %d hash checks (%d mismatches)\n",
		sB.Batches, sB.Resumes, sB.SnapshotLoads, sB.HashChecks, sB.HashMismatches)
	if sA.Resumes == 0 {
		log.Fatal("replica A reconnected without exercising the resume path")
	}
	fmt.Println("\nconverged: two replicas, one canonical table")
}

func rtRoutes(app *feed.RuntimeApplier) int {
	return app.Runtime().Stats().Routes
}
