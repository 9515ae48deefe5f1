// Command lsched-train trains an LSched (or Decima-baseline) scheduling
// model for a benchmark at configurable scale and writes the parameter
// checkpoint to disk, optionally transfer-initializing from a previous
// checkpoint.
//
// Usage:
//
//	lsched-train -bench tpch -episodes 2000 -out tpch.model
//	lsched-train -bench ssb -transfer-from tpch.model -out ssb.model
//	lsched-train -bench tpch -out tpch.model -listen :9090   # watch live
//	lsched-train -bench tpch -out tpch.model -store ./policies -store-every 100
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/decima"
	"repro/internal/engine"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policystore"
	"repro/internal/serving"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "tpch", "benchmark: tpch, ssb, or job")
	episodes := flag.Int("episodes", 500, "training episodes")
	queries := flag.Int("queries", 20, "queries per training episode (episodes vary around this)")
	rollouts := flag.Int("rollouts", 1, "episodes collected concurrently per policy update (1 = sequential)")
	threads := flag.Int("threads", 60, "worker threads")
	seed := flag.Int64("seed", 1, "seed")
	out := flag.String("out", "", "checkpoint output path (required)")
	storeDir := flag.String("store", "", "also publish checkpoints to this policy store directory (see lsched-policyctl)")
	storeEvery := flag.Int("store-every", 0, "with -store, publish an interim version every N episodes (0 = final only)")
	transferFrom := flag.String("transfer-from", "", "warm-start from this checkpoint with inner layers frozen")
	baseline := flag.Bool("decima", false, "train the Decima baseline instead of LSched")
	listen := flag.String("listen", "", "serve live observability endpoints (/metrics, /trace.chrome, /policy, /debug/pprof/, ...) on this address during training, e.g. :9090")
	traceOut := flag.String("trace-out", "", "write the training trace tail as Chrome trace-event JSON to this file at exit (load in Perfetto / chrome://tracing)")
	traceCap := flag.Int("trace-cap", metrics.DefaultTraceCapacity, "trace ring-buffer capacity (last N events retained)")
	flag.Parse()
	if *out == "" {
		log.Fatal("-out is required")
	}

	pool, err := workload.NewPool(workload.Benchmark(*bench), *seed)
	if err != nil {
		log.Fatal(err)
	}
	var store *policystore.Store
	if *storeDir != "" {
		store, err = policystore.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
	}

	var agent *lsched.Agent
	if *baseline {
		agent = decima.New(*seed)
	} else {
		agent = lsched.New(lsched.DefaultOptions(*seed))
	}
	if *transferFrom != "" {
		data, err := os.ReadFile(*transferFrom)
		if err != nil {
			log.Fatal(err)
		}
		src := lsched.New(lsched.DefaultOptions(*seed))
		if err := src.Restore(data); err != nil {
			log.Fatal(err)
		}
		if err := agent.TransferFrom(src); err != nil {
			log.Fatal(err)
		}
		fmt.Println("transfer-initialized; inner layers frozen")
	}

	cfg := lsched.DefaultTrainConfig(*seed)
	if *baseline {
		cfg = decima.TrainConfig(cfg)
	}
	cfg.Episodes = *episodes
	cfg.Rollouts = *rollouts
	cfg.SimCfg = engine.SimConfig{Threads: *threads, NoiseFrac: 0.15}
	var reg *metrics.Registry
	var tr *metrics.Tracer
	if *listen != "" || *traceOut != "" {
		reg = metrics.NewRegistry()
		tr = metrics.NewTracer(*traceCap)
		cfg.SimCfg.Metrics = reg
		cfg.SimCfg.Trace = tr
		agent.Instrument(reg)
	}
	if *listen != "" {
		var policy func() any
		if store != nil {
			policy = serving.PolicyStatusProvider(store, nil)
		}
		srv := obs.NewServer(obs.Options{Metrics: reg, Trace: tr, Policy: policy})
		addr, err := srv.Start(*listen)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability: serving http://%s/\n", addr)
	}
	nq := *queries
	cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
		n := nq/2 + rng.Intn(nq)
		if ep%4 == 3 {
			return workload.Batch(pool.Train, n, rng)
		}
		return workload.Streaming(pool.Train, n, 0.2+rng.Float64()*2, rng)
	}
	start := time.Now()
	trainSummary := fmt.Sprintf("bench=%s episodes=%d queries=%d threads=%d seed=%d rollouts=%d decima=%v transfer=%q",
		*bench, *episodes, *queries, *threads, *seed, *rollouts, *baseline, *transferFrom)
	var lastReward, lastDur float64
	storeParent := 0
	cfg.OnEpisode = func(ep int, avgReward, avgDur float64) {
		lastReward, lastDur = avgReward, avgDur
		if (ep+1)%50 == 0 {
			fmt.Printf("episode %5d  avg reward %10.2f  avg duration %8.2f  (%v elapsed)\n",
				ep+1, avgReward, avgDur, time.Since(start).Round(time.Second))
		}
		if store != nil && *storeEvery > 0 && (ep+1)%*storeEvery == 0 && ep+1 < *episodes {
			data, err := agent.Checkpoint()
			if err != nil {
				log.Printf("policy store: checkpoint at episode %d: %v", ep+1, err)
				return
			}
			v, err := store.Put(policystore.PutOptions{
				Params:      data,
				Parent:      storeParent,
				Source:      "train-interim",
				TrainConfig: trainSummary,
				Metrics: map[string]float64{
					"episode": float64(ep + 1), "avg_reward": avgReward, "avg_duration": avgDur,
				},
			})
			if err != nil {
				log.Printf("policy store: put at episode %d: %v", ep+1, err)
				return
			}
			storeParent = v
		}
	}
	if _, err := lsched.Train(agent, cfg); err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		if err := obs.WriteChromeTrace(*traceOut, tr); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "observability: wrote trace to %s (open in Perfetto)\n", *traceOut)
	}

	data, err := agent.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d episodes in %v; checkpoint written to %s (%d bytes)\n",
		*episodes, time.Since(start).Round(time.Second), *out, len(data))
	if store != nil {
		v, err := store.Put(policystore.PutOptions{
			Params:      data,
			Parent:      storeParent,
			Source:      "train",
			TrainConfig: trainSummary,
			Metrics: map[string]float64{
				"episodes": float64(*episodes), "avg_reward": lastReward, "avg_duration": lastDur,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("policy store: published v%d to %s (promote with lsched-policyctl)\n", v, *storeDir)
	}
}
