// Streaming: the paper's core evaluation scenario (§7.2) in miniature —
// a dynamic TPC-H workload where queries arrive with exponential gaps,
// scheduled by LSched, Decima, the Quickstep heuristic, tuned SelfTune,
// and fair scheduling. Prints the duration CDF per scheduler.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"repro/internal/decima"
	"repro/internal/engine"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/selftune"
	"repro/internal/workload"
)

const (
	seed    = 7
	threads = 24
	queries = 24
	rate    = 0.5
)

func main() {
	pool, err := workload.NewPool(workload.BenchTPCH, seed)
	if err != nil {
		log.Fatal(err)
	}

	trainCfg := func(s int64) lsched.TrainConfig {
		cfg := lsched.DefaultTrainConfig(s)
		cfg.Episodes = 80
		cfg.SimCfg = engine.SimConfig{Threads: threads, NoiseFrac: 0.1}
		cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
			return workload.Streaming(pool.Train, 10, rate, rng)
		}
		return cfg
	}

	fmt.Println("training LSched...")
	agent := lsched.New(lsched.DefaultOptions(seed))
	if _, err := lsched.Train(agent, trainCfg(seed)); err != nil {
		log.Fatal(err)
	}
	agent.SetGreedy(true)

	fmt.Println("training Decima baseline...")
	dec := decima.New(seed)
	if _, err := lsched.Train(dec, decima.TrainConfig(trainCfg(seed))); err != nil {
		log.Fatal(err)
	}
	dec.SetGreedy(true)

	fmt.Println("tuning SelfTune...")
	rng := rand.New(rand.NewSource(seed))
	st, _, err := selftune.Tune(tuneConfig(pool, rng))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-10s %8s %8s %8s %8s\n", "scheduler", "mean", "p50", "p90", "max")
	for _, s := range []engine.Scheduler{agent, dec, heuristics.Quickstep{}, st, heuristics.Fair{}} {
		r := rand.New(rand.NewSource(seed))
		arrivals := workload.Streaming(pool.Test, queries, rate, r)
		sim := engine.NewSim(engine.SimConfig{Threads: threads, Seed: seed, NoiseFrac: 0.1})
		res, err := sim.Run(s, arrivals)
		if err != nil {
			log.Fatal(err)
		}
		ds := make([]float64, 0, len(res.Durations))
		for _, d := range res.Durations {
			ds = append(ds, d)
		}
		sort.Float64s(ds)
		fmt.Printf("%-10s %8.1f %8.1f %8.1f %8.1f\n", s.Name(),
			res.AvgDuration(), ds[len(ds)/2], ds[int(0.9*float64(len(ds)-1))], ds[len(ds)-1])
	}
}

func tuneConfig(pool *workload.Pool, rng *rand.Rand) selftune.TuneConfig {
	var ws [][]engine.Arrival
	for i := 0; i < 2; i++ {
		ws = append(ws, workload.Streaming(pool.Train, 10, rate, rng))
	}
	return selftune.TuneConfig{
		Rounds: 10, Restarts: 2, Seed: seed,
		SimCfg:    engine.SimConfig{Threads: threads, NoiseFrac: 0.1},
		Workloads: ws,
	}
}
