// Quickstart: train a small LSched agent on a TPC-H workload, then
// schedule a held-out streaming workload and compare it against fair
// scheduling. Runs in under a minute.
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

func main() {
	const seed = 42

	// 1. Build the benchmark pool: TPC-H plans at the paper's scale
	// factors, split 50/50 into train and test queries.
	pool, err := workload.NewPool(workload.BenchTPCH, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-H pool: %d training plans, %d test plans\n", len(pool.Train), len(pool.Test))

	// 2. Train the agent with REINFORCE on small streaming episodes.
	agent := lsched.New(lsched.DefaultOptions(seed))
	cfg := lsched.DefaultTrainConfig(seed)
	cfg.Episodes = 60
	cfg.SimCfg = engine.SimConfig{Threads: 16, NoiseFrac: 0.1}
	cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
		return workload.Streaming(pool.Train, 8, 0.5, rng)
	}
	fmt.Println("training for 60 episodes...")
	if _, err := lsched.Train(agent, cfg); err != nil {
		log.Fatal(err)
	}
	agent.SetGreedy(true)

	// 3. Schedule a held-out workload and compare with fair scheduling.
	for _, sched := range []engine.Scheduler{agent, heuristics.Fair{}} {
		rng := rand.New(rand.NewSource(seed))
		arrivals := workload.Streaming(pool.Test, 16, 0.5, rng)
		sim := engine.NewSim(engine.SimConfig{Threads: 16, Seed: seed, NoiseFrac: 0.1})
		res, err := sim.Run(sched, arrivals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s avg query duration %8.2f  makespan %8.2f  (%d work orders, %d decisions)\n",
			sched.Name(), res.AvgDuration(), res.Makespan, res.WorkOrders, res.SchedActions)
	}
}
