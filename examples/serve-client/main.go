// Serve-client: exercise the concurrent forwarding service in-process —
// the software analog of the paper's line card under live load. A pool
// of client goroutines streams skewed lookup traffic through the
// partition workers while others push a burst of BGP-style announces and
// withdraws through the single-writer update path, then the exported
// metrics show the paper's quantities: per-update Time-To-Fresh
// (TTF1/TTF2/TTF3), writer batching, and the divert behaviour of the
// adaptive load balancer.
package main

import (
	"fmt"
	"log"
	"sync"

	"clue/internal/fibgen"
	"clue/internal/serve"
	"clue/internal/tracegen"
)

const (
	tableSize  = 20000
	lookupers  = 8
	submitters = 4
	messages   = 2000  // update burst, split across submitters
	lookups    = 40000 // per lookuper goroutine
)

func main() {
	fib, err := fibgen.Generate(fibgen.Config{Seed: 2024, Routes: tableSize})
	if err != nil {
		log.Fatal(err)
	}
	rt, err := serve.New(fib.Routes(), serve.Config{QueueDepth: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	snap := rt.Snapshot()
	fmt.Printf("service up: %d routes compressed to %d, %d workers, snapshot v%d\n",
		tableSize, snap.Len(), snap.Workers(), snap.Version)

	// Update burst: a deterministic announce/withdraw stream, pushed
	// concurrently by several submitters while lookups are in flight.
	gen, err := tracegen.NewUpdateGen(fib, tracegen.UpdateConfig{Seed: 2024, Messages: messages})
	if err != nil {
		log.Fatal(err)
	}
	stream := gen.NextN(messages)

	var wg sync.WaitGroup
	for i := 0; i < lookupers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			traffic, err := tracegen.NewTraffic(
				tracegen.PrefixesFromRoutes(rt.Snapshot().Routes()),
				tracegen.TrafficConfig{Seed: seed},
			)
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < lookups; i++ {
				if _, err := rt.Dispatch(traffic.Next()); err != nil {
					log.Fatal(err)
				}
			}
		}(int64(i + 1))
	}
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(ops []tracegen.Update) {
			defer wg.Done()
			for _, u := range ops {
				var err error
				if u.Kind == tracegen.Announce {
					_, err = rt.Announce(u.Prefix, u.Hop)
				} else {
					_, err = rt.Withdraw(u.Prefix)
				}
				if err != nil {
					log.Fatal(err)
				}
			}
		}(stream[i*messages/submitters : (i+1)*messages/submitters])
	}
	wg.Wait()

	st := rt.Stats()
	if got := st.Announces + st.Withdraws; got != messages {
		log.Fatalf("applied %d updates, want %d", got, messages)
	}
	if st.UpdateErrors != 0 {
		log.Fatalf("%d update errors", st.UpdateErrors)
	}

	mean := st.MeanTTF()
	fmt.Printf("\nafter %d lookups and %d updates:\n", st.Dispatched, messages)
	fmt.Printf("  snapshot v%d, %d routes, %d snapshot swaps (mean batch %.1f ops)\n",
		st.SnapshotVersion, st.Routes, st.Batches, st.MeanBatch())
	fmt.Printf("  mean TTF per update: trie %.0f ns + tcam %.0f ns + dred %.0f ns = %.0f ns\n",
		mean.Trie, mean.TCAM, mean.DRed, mean.Total())
	fmt.Printf("  divert rate %.2f%% (%d diverted, %d blocked)\n",
		100*st.DivertRate(), st.Diverted, st.OverflowBlocked)
	fmt.Println("  served load per worker:")
	for i, v := range st.WorkerServed {
		fmt.Printf("    worker %d: %6.2f%%\n", i+1, 100*float64(v)/float64(st.Dispatched))
	}
	fmt.Println("\nreads never locked; every announce was visible when it returned")
}
