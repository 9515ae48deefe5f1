// Transfer: the paper's §6 transfer-learning workflow — train a model
// on TPC-H, then bootstrap an SSB scheduler from it by freezing the
// inner (convolution and hidden) layers and retraining only the layers
// adjacent to inputs and outputs. Compares learning curves from scratch
// versus transferred.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/lsched"
	"repro/internal/workload"
)

const (
	seed     = 21
	threads  = 16
	episodes = 60
)

func main() {
	tpch, err := workload.NewPool(workload.BenchTPCH, seed)
	if err != nil {
		log.Fatal(err)
	}
	ssb, err := workload.NewPool(workload.BenchSSB, seed)
	if err != nil {
		log.Fatal(err)
	}

	trainOn := func(agent *lsched.Agent, pool *workload.Pool, label string) []float64 {
		var curve []float64
		cfg := lsched.DefaultTrainConfig(seed)
		cfg.Episodes = episodes
		cfg.SimCfg = engine.SimConfig{Threads: threads, NoiseFrac: 0.1}
		cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
			return workload.Streaming(pool.Train, 8, 0.5, rng)
		}
		cfg.OnEpisode = func(ep int, avgReward, _ float64) {
			curve = append(curve, avgReward)
		}
		if _, err := lsched.Train(agent, cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: trained %d episodes\n", label, episodes)
		return curve
	}

	// 1. Source model on TPC-H.
	src := lsched.New(lsched.DefaultOptions(seed))
	trainOn(src, tpch, "source (TPCH)")

	// 2. SSB from scratch vs transferred from the TPC-H model.
	scratch := lsched.New(lsched.DefaultOptions(seed + 1))
	scratchCurve := trainOn(scratch, ssb, "SSB from scratch")

	transferred := lsched.New(lsched.DefaultOptions(seed + 2))
	if err := transferred.TransferFrom(src); err != nil {
		log.Fatal(err)
	}
	frozen := 0
	for _, p := range transferred.Params().All() {
		if p.Frozen() {
			frozen++
		}
	}
	fmt.Printf("transfer: copied source parameters, froze %d inner-layer tensors\n", frozen)
	transferCurve := trainOn(transferred, ssb, "SSB with transfer")

	// 3. Report the smoothed reward curves (higher, i.e. less negative,
	// is better); the transferred run should reach a good reward in
	// roughly half the episodes.
	fmt.Printf("\n%-10s %12s %12s\n", "episodes", "scratch", "transfer")
	for _, m := range []int{10, 20, 30, 40, 50, 60} {
		fmt.Printf("%-10d %12.2f %12.2f\n", m, tail(scratchCurve, m), tail(transferCurve, m))
	}
}

// tail averages the 10 rewards before episode m.
func tail(curve []float64, m int) float64 {
	if m > len(curve) {
		m = len(curve)
	}
	lo := m - 10
	if lo < 0 {
		lo = 0
	}
	s, n := 0.0, 0
	for _, v := range curve[lo:m] {
		s += v
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
