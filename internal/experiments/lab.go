package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/decima"
	"repro/internal/engine"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/provenance"
	"repro/internal/selftune"
	"repro/internal/workload"
)

// Scale trades experiment fidelity for run time. Paper-scale settings
// (5000 training episodes, 100-query sweeps) take hours; the Quick scale
// keeps every experiment's shape while fitting in `go test -bench`.
type Scale struct {
	// TrainEpisodes is the LSched/Decima training budget per benchmark.
	TrainEpisodes int
	// TrainQueries is the per-episode query count during training.
	TrainQueries int
	// EvalQueries is the workload size of evaluation runs (paper: 80).
	EvalQueries int
	// Threads is the worker pool size (paper: 60).
	Threads int
	// Repeats is how many seeds evaluation runs average over.
	Repeats int
	// TuneRounds is the SelfTune hill-climbing budget.
	TuneRounds int
	// Rollouts is the number of training episodes collected concurrently
	// per policy update (lsched.TrainConfig.Rollouts); 0/1 trains
	// sequentially.
	Rollouts int
}

// QuickScale is the default for the CLI's -scale quick runs; it matches
// the root benchmarks' settings.
func QuickScale() Scale {
	return Scale{TrainEpisodes: 120, TrainQueries: 8, EvalQueries: 20, Threads: 20, Repeats: 1, TuneRounds: 6}
}

// PaperScale approaches the paper's settings (long-running; used by
// cmd/lsched-bench -scale paper).
func PaperScale() Scale {
	return Scale{TrainEpisodes: 1000, TrainQueries: 40, EvalQueries: 80, Threads: 60, Repeats: 3, TuneRounds: 40}
}

// Lab owns the shared expensive artifacts — benchmark pools, trained
// LSched/Decima agents, tuned SelfTune schedulers — so the figure
// regenerators can reuse them.
type Lab struct {
	Scale Scale
	Seed  int64

	// Metrics and Trace, when set, are threaded into every evaluation
	// run's SimConfig (training runs stay un-instrumented: they execute
	// thousands of episodes and would drown the trace). The CLI's
	// -metrics flag populates them and prints the registry as
	// Prometheus text at exit; -trace-out writes the trace.
	Metrics *metrics.Registry
	Trace   *metrics.Tracer

	// WatchTraining, when set alongside Metrics, threads the registry
	// (but not the trace: thousands of episodes would drown the ring)
	// into training runs too, so a live observer (lsched-bench -listen)
	// sees counters and gauges move during the long training phases of
	// figure regeneration instead of a silent registry.
	WatchTraining bool

	// Provenance, when set, is attached to every LSched-family agent the
	// lab builds or is handed (after training, so only evaluation
	// decisions record), and evaluation sims forward query completions
	// to the agent so records join their outcomes. The CLI's
	// -provenance-out flag populates it and spills the trace at exit.
	Provenance *provenance.Recorder

	pools    map[workload.Benchmark]*workload.Pool
	agents   map[string]*lsched.Agent
	selftune map[workload.Benchmark]*selftune.Scheduler
}

// NewLab builds an empty lab.
func NewLab(scale Scale, seed int64) *Lab {
	return &Lab{
		Scale:    scale,
		Seed:     seed,
		pools:    make(map[workload.Benchmark]*workload.Pool),
		agents:   make(map[string]*lsched.Agent),
		selftune: make(map[workload.Benchmark]*selftune.Scheduler),
	}
}

// Pool returns (and caches) the train/test pool for a benchmark.
func (l *Lab) Pool(b workload.Benchmark) *workload.Pool {
	if p, ok := l.pools[b]; ok {
		return p
	}
	p, err := workload.NewPool(b, l.Seed)
	if err != nil {
		panic(err) // benchmark names are static; this is a programming error
	}
	l.pools[b] = p
	return p
}

// SimConfig returns the evaluation simulator configuration.
func (l *Lab) SimConfig(seed int64) engine.SimConfig {
	return engine.SimConfig{
		Threads: l.Scale.Threads, Seed: seed, NoiseFrac: 0.15,
		Metrics: l.Metrics, Trace: l.Trace,
	}
}

// trainConfig assembles the shared training configuration over a pool.
func (l *Lab) trainConfig(pool *workload.Pool, seed int64) lsched.TrainConfig {
	cfg := lsched.DefaultTrainConfig(seed)
	cfg.Episodes = l.Scale.TrainEpisodes
	cfg.Rollouts = l.Scale.Rollouts
	cfg.SimCfg = engine.SimConfig{Threads: l.Scale.Threads, NoiseFrac: 0.15}
	if l.WatchTraining {
		cfg.SimCfg.Metrics = l.Metrics
	}
	nq := l.Scale.TrainQueries
	// Training cycles a fixed set of workloads (mixing sizes, rates, and
	// batch arrivals as §7.1 prescribes); REINFORCE's baseline is then
	// kept per workload, which keeps the advantage signal meaningful
	// across heterogeneous episodes.
	const groups = 8
	wrng := rand.New(rand.NewSource(seed + 4242))
	fixed := make([][]engine.Arrival, groups)
	for g := range fixed {
		n := nq/2 + wrng.Intn(nq)
		if g%4 == 3 {
			fixed[g] = workload.Batch(pool.Train, n, wrng)
		} else {
			rate := 0.2 + wrng.Float64()*2
			fixed[g] = workload.Streaming(pool.Train, n, rate, wrng)
		}
	}
	cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
		return cloneArrivals(fixed[ep%groups])
	}
	cfg.BaselineKey = func(ep int) int { return ep % groups }
	// Checkpoint selection: score the greedy policy on a fixed held-out
	// training workload (never the test split).
	evalRNG := rand.New(rand.NewSource(seed + 999))
	evalArrivals := workload.Streaming(pool.Train, nq, 0.5, evalRNG)
	cfg.Eval = func(a *lsched.Agent) float64 {
		sim := engine.NewSim(engine.SimConfig{Threads: l.Scale.Threads, Seed: seed + 999, NoiseFrac: 0.15})
		res, err := sim.Run(a, cloneArrivals(evalArrivals))
		if err != nil {
			return 1e18
		}
		return res.AvgDuration()
	}
	return cfg
}

// cloneArrivals deep-copies an arrival list so repeated evaluation runs
// do not share mutable plan state.
func cloneArrivals(in []engine.Arrival) []engine.Arrival {
	return engine.CloneArrivals(in)
}

// UseAgent installs a pre-built agent as the lab's LSched agent for a
// benchmark, bypassing training. The CLI's -policy flag uses it to run
// the figure regenerators under a checkpoint restored from a policy
// store instead of a freshly trained policy.
func (l *Lab) UseAgent(b workload.Benchmark, a *lsched.Agent) {
	a.SetProvenance(l.Provenance)
	l.agents["lsched/"+string(b)] = a
}

// LSched returns (and caches) a trained LSched agent for the benchmark.
func (l *Lab) LSched(b workload.Benchmark) (*lsched.Agent, error) {
	key := "lsched/" + string(b)
	if a, ok := l.agents[key]; ok {
		return a, nil
	}
	agent := lsched.New(lsched.DefaultOptions(l.Seed))
	if _, err := lsched.Train(agent, l.trainConfig(l.Pool(b), l.Seed)); err != nil {
		return nil, fmt.Errorf("training LSched on %s: %w", b, err)
	}
	agent.SetGreedy(true)
	agent.SetProvenance(l.Provenance)
	l.agents[key] = agent
	return agent, nil
}

// Decima returns (and caches) a trained Decima baseline agent.
func (l *Lab) Decima(b workload.Benchmark) (*lsched.Agent, error) {
	key := "decima/" + string(b)
	if a, ok := l.agents[key]; ok {
		return a, nil
	}
	agent := decima.New(l.Seed)
	cfg := decima.TrainConfig(l.trainConfig(l.Pool(b), l.Seed))
	if _, err := lsched.Train(agent, cfg); err != nil {
		return nil, fmt.Errorf("training Decima on %s: %w", b, err)
	}
	agent.SetGreedy(true)
	agent.SetProvenance(l.Provenance)
	l.agents[key] = agent
	return agent, nil
}

// Variant trains an LSched ablation variant (Fig. 15).
func (l *Lab) Variant(b workload.Benchmark, name string, mod func(*lsched.Options)) (*lsched.Agent, error) {
	key := "variant/" + name + "/" + string(b)
	if a, ok := l.agents[key]; ok {
		return a, nil
	}
	opts := lsched.DefaultOptions(l.Seed)
	opts.Name = name
	mod(&opts)
	agent := lsched.New(opts)
	if _, err := lsched.Train(agent, l.trainConfig(l.Pool(b), l.Seed)); err != nil {
		return nil, fmt.Errorf("training variant %s on %s: %w", name, b, err)
	}
	agent.SetGreedy(true)
	agent.SetProvenance(l.Provenance)
	l.agents[key] = agent
	return agent, nil
}

// SelfTune returns (and caches) the tuned SelfTune scheduler for the
// benchmark, tuned against training workloads as its paper prescribes.
func (l *Lab) SelfTune(b workload.Benchmark) (*selftune.Scheduler, error) {
	if s, ok := l.selftune[b]; ok {
		return s, nil
	}
	pool := l.Pool(b)
	rng := rand.New(rand.NewSource(l.Seed))
	var workloads [][]engine.Arrival
	for i := 0; i < 3; i++ {
		workloads = append(workloads, workload.Streaming(pool.Train, l.Scale.TrainQueries, 0.5, rng))
	}
	s, _, err := selftune.Tune(selftune.TuneConfig{
		Rounds:    l.Scale.TuneRounds,
		Restarts:  2,
		Seed:      l.Seed,
		SimCfg:    engine.SimConfig{Threads: l.Scale.Threads, NoiseFrac: 0.15},
		Workloads: workloads,
	})
	if err != nil {
		return nil, fmt.Errorf("tuning SelfTune on %s: %w", b, err)
	}
	l.selftune[b] = s
	return s, nil
}

// EvalStats runs a scheduler over Repeats seeded workloads drawn by gen
// and returns the pooled per-query durations plus summary statistics.
type EvalStats struct {
	Durations []float64
	Mean      float64
	P50       float64
	P90       float64
	// SchedOverheadPerQueryMS is the wall-clock scheduler latency per
	// query in milliseconds (Fig. 13a).
	SchedOverheadPerQueryMS float64
	// SchedActions is the mean number of scheduling actions (Fig. 13b).
	SchedActions float64
}

// Evaluate runs the scheduler on Repeats workloads and pools results.
func (l *Lab) Evaluate(s engine.Scheduler, gen func(rng *rand.Rand) []engine.Arrival, measureOverhead bool) (*EvalStats, error) {
	stats := &EvalStats{}
	totalQueries := 0
	var overheadMS float64
	var actions int
	for r := 0; r < l.Scale.Repeats; r++ {
		rng := rand.New(rand.NewSource(l.Seed + int64(r)*31))
		arrivals := gen(rng)
		cfg := l.SimConfig(l.Seed + int64(r)*17)
		cfg.MeasureOverhead = measureOverhead
		sim := engine.NewSim(cfg)
		// Lifecycle-observing schedulers (agents with a flight recorder
		// attached) get completion callbacks so records join outcomes.
		if o, ok := s.(engine.QueryObserver); ok {
			sim.SetObserver(o)
		}
		res, err := sim.Run(s, arrivals)
		if err != nil {
			return nil, fmt.Errorf("evaluating %s: %w", s.Name(), err)
		}
		for _, d := range res.Durations {
			stats.Durations = append(stats.Durations, d)
		}
		totalQueries += len(res.Durations)
		overheadMS += float64(res.SchedOverhead.Microseconds()) / 1000.0
		actions += res.SchedActions
	}
	sort.Float64s(stats.Durations)
	stats.Mean = meanOf(stats.Durations)
	stats.P50 = pct(stats.Durations, 0.5)
	stats.P90 = pct(stats.Durations, 0.9)
	if totalQueries > 0 {
		stats.SchedOverheadPerQueryMS = overheadMS / float64(totalQueries)
	}
	stats.SchedActions = float64(actions) / float64(l.Scale.Repeats)
	return stats, nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
