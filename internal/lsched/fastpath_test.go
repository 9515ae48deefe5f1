package lsched

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// collectDecisions runs one seeded simulation under ag and returns the
// full decision stream plus the run summary.
func collectDecisions(t *testing.T, ag engine.Scheduler, simSeed int64, arrivals []engine.Arrival) ([]engine.Decision, *engine.SimResult) {
	t.Helper()
	var ds []engine.Decision
	spy := spySched{inner: ag, onDecision: func(d engine.Decision) { ds = append(ds, d) }}
	sim := engine.NewSim(engine.SimConfig{Threads: 6, Seed: simSeed, NoiseFrac: 0.1})
	res, err := sim.Run(spy, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return ds, res
}

// TestFastPathDecisionsBitIdentical drives the same seeded workload
// through Agent.OnEvent (inference tape + encoding cache + scratch
// reuse) and through the recording-tape oracle, and requires the
// decision sequences, per-query durations, and full engine traces to
// match bit for bit.
func TestFastPathDecisionsBitIdentical(t *testing.T) {
	for _, greedy := range []bool{true, false} {
		name := "sampling"
		if greedy {
			name = "greedy"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() *Agent {
				a := New(DefaultOptions(21))
				a.SetGreedy(greedy)
				return a
			}
			fast, slow := mk(), tapeOracle{mk()}
			dsF, resF := collectDecisions(t, fast, 21, testArrivals(t, 8, 21))
			dsS, resS := collectDecisions(t, slow, 21, testArrivals(t, 8, 21))
			if len(dsF) != len(dsS) {
				t.Fatalf("decision counts differ: fast=%d slow=%d", len(dsF), len(dsS))
			}
			for i := range dsF {
				if dsF[i] != dsS[i] {
					t.Fatalf("decision %d differs: fast=%+v slow=%+v", i, dsF[i], dsS[i])
				}
			}
			if resF.Makespan != resS.Makespan {
				t.Fatalf("makespans differ: %v vs %v", resF.Makespan, resS.Makespan)
			}
			if len(resF.Durations) != len(resS.Durations) {
				t.Fatalf("completion counts differ")
			}
			for id, d := range resF.Durations {
				if resS.Durations[id] != d {
					t.Fatalf("query %d duration differs: %v vs %v", id, d, resS.Durations[id])
				}
			}
			if len(resF.EventTrace) != len(resS.EventTrace) {
				t.Fatalf("trace lengths differ")
			}
			for i := range resF.EventTrace {
				if resF.EventTrace[i] != resS.EventTrace[i] {
					t.Fatalf("trace point %d differs", i)
				}
			}
			hits, _ := fast.EncodingCacheStats()
			if hits == 0 {
				t.Fatal("fast path never hit the encoding cache")
			}
		})
	}
}

// TestFastPathRecordedStepsSurviveReuse checks that steps recorded by
// OnEvent are deep copies: replaying them after further events
// (which overwrite the scratch buffers) must see the original features.
func TestFastPathRecordedStepsSurviveReuse(t *testing.T) {
	agent := New(DefaultOptions(23))
	sim := engine.NewSim(engine.SimConfig{Threads: 4, Seed: 23})
	agent.startRecording()
	if _, err := sim.Run(agent, testArrivals(t, 6, 23)); err != nil {
		t.Fatal(err)
	}
	steps := agent.stopRecording()
	if len(steps) < 2 {
		t.Fatalf("recorded only %d steps", len(steps))
	}
	// Every recorded snapshot must own its feature memory: no two steps
	// may alias the same backing array cell.
	seen := map[*float64]int{}
	for si, s := range steps {
		for qi := range s.snap.Queries {
			q := &s.snap.Queries[qi]
			if len(q.QF) == 0 {
				t.Fatal("recorded step lost its QF")
			}
			if prev, dup := seen[&q.QF[0]]; dup {
				t.Fatalf("steps %d and %d share QF backing memory", prev, si)
			}
			seen[&q.QF[0]] = si
		}
	}
	// And replaying them must produce finite gradients.
	agent.params.ZeroGrads()
	for _, s := range steps {
		agent.replayStep(s, 0.1, 0.01)
	}
}

// TestTrainRolloutsDeterministic: the parallel trainer is a
// deterministic function of (seed, rollouts) — two runs with four
// concurrent rollouts must produce identical reward curves and
// byte-identical checkpoints.
func TestTrainRolloutsDeterministic(t *testing.T) {
	run := func() ([]float64, []byte) {
		agent := New(DefaultOptions(31))
		cfg := rolloutTrainConfig(t, 31)
		cfg.Rollouts = 4
		res, err := Train(agent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := agent.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return res.EpisodeRewards, ck
	}
	a, ckA := run()
	b, ckB := run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("reward curve lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("episode %d reward differs across runs: %v vs %v", i, a[i], b[i])
		}
	}
	if !bytes.Equal(ckA, ckB) {
		t.Fatal("same-seed training runs produced different checkpoint bytes")
	}
}

// TestTrainRolloutsMatchSequential: with the policy frozen (LR=0, no
// eval checkpoints), update cadence is irrelevant and per-episode
// action seeding makes each episode's schedule depend only on its
// index — so four parallel rollouts must reproduce the sequential
// trainer's reward curve exactly.
func TestTrainRolloutsMatchSequential(t *testing.T) {
	run := func(rollouts int) []float64 {
		agent := New(DefaultOptions(37))
		cfg := rolloutTrainConfig(t, 37)
		cfg.LR = 0
		cfg.EntropyWeight = 0
		cfg.Rollouts = rollouts
		res, err := Train(agent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.EpisodeRewards
	}
	seq, par := run(1), run(4)
	if len(seq) != len(par) || len(seq) == 0 {
		t.Fatalf("reward curve lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("episode %d: sequential %v vs rollouts=4 %v", i, seq[i], par[i])
		}
	}
}

// rolloutTrainConfig is a small shared training config for the rollout
// tests: 8 episodes over a fixed TPC-H pool.
func rolloutTrainConfig(t *testing.T, seed int64) TrainConfig {
	t.Helper()
	pool, err := workload.NewPool(workload.BenchTPCH, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig(seed)
	cfg.Episodes = 8
	cfg.SimCfg = engine.SimConfig{Threads: 6, NoiseFrac: 0.1}
	cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
		return workload.Streaming(pool.Train, 4, 0.5, rng)
	}
	cfg.BaselineKey = func(ep int) int { return ep % 4 }
	return cfg
}
