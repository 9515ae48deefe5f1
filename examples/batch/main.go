// Batch: the paper's batch-processing scenario — all SSB queries arrive
// at time zero (a user submits a whole script), putting the system under
// maximal pressure. This is where the paper reports LSched's largest
// wins, because good decisions matter most when the load peaks.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/workload"
)

const (
	seed    = 11
	threads = 16
	queries = 20
)

func main() {
	pool, err := workload.NewPool(workload.BenchSSB, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSB pool: %d training plans, %d test plans\n", len(pool.Train), len(pool.Test))

	agent := lsched.New(lsched.DefaultOptions(seed))
	cfg := lsched.DefaultTrainConfig(seed)
	cfg.Episodes = 80
	cfg.SimCfg = engine.SimConfig{Threads: threads, NoiseFrac: 0.1}
	cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
		return workload.Batch(pool.Train, 10, rng)
	}
	fmt.Println("training LSched on batch episodes...")
	if _, err := lsched.Train(agent, cfg); err != nil {
		log.Fatal(err)
	}
	agent.SetGreedy(true)

	for _, s := range []engine.Scheduler{agent, heuristics.Quickstep{}, heuristics.Fair{}, heuristics.FIFO{}} {
		rng := rand.New(rand.NewSource(seed))
		arrivals := workload.Batch(pool.Test, queries, rng)
		sim := engine.NewSim(engine.SimConfig{Threads: threads, Seed: seed, NoiseFrac: 0.1})
		res, err := sim.Run(s, arrivals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s avg duration %8.1f  makespan %8.1f\n", s.Name(), res.AvgDuration(), res.Makespan)
	}
}
