package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/plan"
	"repro/internal/policystore"
	"repro/internal/workload"
)

// policySeed fixes parameter initialisation, action sampling, episode
// workloads and the admission head, so every run trains and serves the
// bit-identical policy: --seed picks the traffic, never the program.
const policySeed = 1

// trainStats is what one lsched.Train call cost.
type trainStats struct {
	episodes int
	seconds  float64
	allocs   uint64
}

func (s trainStats) episodesPerS() float64 { return ratio(float64(s.episodes), s.seconds) }

// trainPolicy runs REINFORCE on streaming episodes over the plans in the
// simulator, the paper's own training loop (§6), and returns the agent
// switched to greedy evaluation.
func trainPolicy(plans []*plan.Plan, episodes, rollouts int) (*lsched.Agent, trainStats, error) {
	agent := lsched.New(lsched.DefaultOptions(policySeed))
	cfg := lsched.DefaultTrainConfig(policySeed)
	cfg.Episodes = episodes
	cfg.Rollouts = rollouts
	cfg.SimCfg = engine.SimConfig{Threads: 6, NoiseFrac: 0.1}
	cfg.Workload = func(_ int, rng *rand.Rand) []engine.Arrival {
		return workload.Streaming(plans, 4, 0.5, rng)
	}
	cfg.BaselineKey = func(ep int) int { return ep % 4 }

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := lsched.Train(agent, cfg); err != nil {
		return nil, trainStats{}, fmt.Errorf("train policy: %w", err)
	}
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	agent.SetGreedy(true)
	return agent, trainStats{episodes: episodes, seconds: secs, allocs: after.Mallocs - before.Mallocs}, nil
}

// simDurationRatio evaluates sched and heuristics.Quickstep on the same
// held-out arrivals (20 streaming then 20 batched queries, fixed seed)
// in the simulator and returns sched's mean query duration over
// Quickstep's. Virtual time: the value repeats exactly once rounded
// below the last-bit noise of summing durations in map order.
func simDurationRatio(sched engine.Scheduler, heldOut []*plan.Plan) (float64, error) {
	rng := rand.New(rand.NewSource(policySeed))
	arrivals := append(workload.Streaming(heldOut, 20, 0.5, rng), workload.Batch(heldOut, 20, rng)...)
	avg := func(s engine.Scheduler) (float64, error) {
		sim := engine.NewSim(engine.SimConfig{Threads: 6, NoiseFrac: 0.1, Seed: policySeed})
		res, err := sim.Run(s, engine.CloneArrivals(arrivals))
		if err != nil {
			return 0, fmt.Errorf("simulate %s: %w", s.Name(), err)
		}
		return res.AvgDuration(), nil
	}
	learned, err := avg(sched)
	if err != nil {
		return 0, err
	}
	base, err := avg(heuristics.Quickstep{})
	if err != nil {
		return 0, err
	}
	return math.Round(ratio(learned, base)*1e9) / 1e9, nil
}

// publishPolicy checkpoints the agent into a fresh policystore under
// dir and promotes it, as lsched-train -store followed by
// lsched-policyctl promote would.
func publishPolicy(agent *lsched.Agent, dir string, st trainStats) (*policystore.Store, int, time.Duration, error) {
	start := time.Now()
	params, err := agent.Checkpoint()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("checkpoint policy: %w", err)
	}
	store, err := policystore.Open(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	version, err := store.Put(policystore.PutOptions{
		Params:      params,
		Source:      "bench",
		TrainConfig: fmt.Sprintf("episodes=%d seed=%d", st.episodes, policySeed),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := store.Promote(version); err != nil {
		return nil, 0, 0, err
	}
	return store, version, time.Since(start), nil
}
