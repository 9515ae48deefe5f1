// Liveexec: runs benchmark queries on the live execution engine — work
// orders really scan, filter, hash-join, and aggregate columnar blocks,
// and durations are measured wall-clock — under two schedulers. This is
// the path that grounds the simulator's cost model in real executions.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/heuristics"
	"repro/internal/workload"
)

func main() {
	const seed = 5

	// SSB plans at a tiny scale factor keep live execution quick.
	plans := workload.SSB(0.1)
	catalog, err := workload.SyntheticCatalog(plans, 2048, 8, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic catalog: %d relations (%v ...)\n", catalog.Len(), catalog.Names()[:3])

	rng := rand.New(rand.NewSource(seed))
	var arrivals []engine.Arrival
	for i := 0; i < 8; i++ {
		arrivals = append(arrivals, engine.Arrival{Plan: plans[rng.Intn(len(plans))].Clone(), At: float64(i) * 0.001})
	}

	for _, s := range []engine.Scheduler{heuristics.Quickstep{}, heuristics.Fair{}} {
		live := engine.NewLive(catalog, engine.LiveConfig{Threads: 4, TimeScale: 1})
		if err := live.Validate(plans); err != nil {
			log.Fatal(err)
		}
		res, err := live.Run(s, engine.CloneArrivals(arrivals))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d work orders executed, makespan %.4fs\n", s.Name(), res.WorkOrders, res.Makespan)
		for qid, rows := range res.OutputRows {
			fmt.Printf("  query %d produced %d rows in %.4fs\n", qid, rows, res.Durations[qid])
		}
		fmt.Println("  measured per-work-order cost by operator (calibrates the simulator):")
		for op, d := range res.OpDurations {
			fmt.Printf("    %-18v %.6fs\n", op, d)
		}
	}
}
