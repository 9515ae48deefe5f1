// Command lsched-demo schedules one workload under a chosen scheduler
// and prints the scheduling trace: every decision (execution root,
// pipeline degree, thread grant) and the resulting per-query durations.
//
// Usage:
//
//	lsched-demo -bench ssb -queries 6 -sched quickstep
//	lsched-demo -bench tpch -queries 8 -sched lsched -model tpch.model
//	lsched-demo -bench ssb -queries 6 -metrics          # Prometheus text at exit
//	lsched-demo -bench ssb -queries 6 -listen :9090     # live endpoints
//	lsched-demo -bench ssb -queries 6 -trace-out demo.trace
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"

	"repro/internal/engine"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// tracer wraps a scheduler and logs its decisions.
type tracer struct {
	inner engine.Scheduler
	n     int
}

func (t *tracer) Name() string { return t.inner.Name() }

func (t *tracer) OnEvent(st *engine.State, ev engine.Event) []engine.Decision {
	ds := t.inner.OnEvent(st, ev)
	for _, d := range ds {
		if d.RootOpID < 0 {
			continue
		}
		t.n++
		if t.n <= 40 {
			q := st.Query(d.QueryID)
			name := "?"
			if q != nil {
				name = q.Plan.QueryName
			}
			fmt.Printf("t=%9.3f %-12s q%-3d (%s) root=op%-3d pipeline=%d threads=%d\n",
				st.Now, ev.Kind, d.QueryID, name, d.RootOpID, d.PipelineDepth, d.Threads)
		}
	}
	return ds
}

func main() {
	bench := flag.String("bench", "ssb", "benchmark: tpch, ssb, or job")
	queries := flag.Int("queries", 6, "number of queries")
	threads := flag.Int("threads", 16, "worker threads")
	schedName := flag.String("sched", "quickstep", "scheduler: lsched, fifo, fair, quickstep, criticalpath")
	model := flag.String("model", "", "checkpoint for -sched lsched (untrained if omitted)")
	seed := flag.Int64("seed", 1, "seed")
	withMetrics := flag.Bool("metrics", false, "instrument the run and print the registry as Prometheus text at exit")
	listen := flag.String("listen", "", "serve live observability endpoints (/metrics, /trace.chrome, /debug/pprof/, ...) on this address during the run, e.g. :9090")
	traceOut := flag.String("trace-out", "", "write the run's trace as Chrome trace-event JSON to this file at exit (load in Perfetto / chrome://tracing)")
	flag.Parse()

	pool, err := workload.NewPool(workload.Benchmark(*bench), *seed)
	if err != nil {
		log.Fatal(err)
	}
	var sched engine.Scheduler
	switch *schedName {
	case "lsched":
		agent := lsched.New(lsched.DefaultOptions(*seed))
		if *model != "" {
			data, err := os.ReadFile(*model)
			if err != nil {
				log.Fatal(err)
			}
			if err := agent.Restore(data); err != nil {
				log.Fatal(err)
			}
		}
		agent.SetGreedy(true)
		sched = agent
	case "fifo":
		sched = heuristics.FIFO{}
	case "fair":
		sched = heuristics.Fair{}
	case "quickstep":
		sched = heuristics.Quickstep{}
	case "criticalpath":
		sched = heuristics.CriticalPath{}
	default:
		log.Fatalf("unknown scheduler %q", *schedName)
	}

	rng := rand.New(rand.NewSource(*seed))
	arrivals := workload.Streaming(pool.Test, *queries, 0.5, rng)
	simCfg := engine.SimConfig{Threads: *threads, Seed: *seed, NoiseFrac: 0.1}
	if *withMetrics || *listen != "" || *traceOut != "" {
		simCfg.Metrics = metrics.NewRegistry()
		simCfg.Trace = metrics.NewTracer(0)
		if agent, ok := sched.(*lsched.Agent); ok {
			agent.Instrument(simCfg.Metrics)
		}
	}
	var srv *obs.Server
	if *listen != "" {
		srv = obs.NewServer(obs.Options{Metrics: simCfg.Metrics, Trace: simCfg.Trace})
		addr, err := srv.Start(*listen)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability: serving http://%s/\n", addr)
	}
	sim := engine.NewSim(simCfg)
	tr := &tracer{inner: sched}
	res, err := sim.Run(tr, arrivals)
	if err != nil {
		log.Fatal(err)
	}
	if tr.n > 40 {
		fmt.Printf("... (%d more decisions)\n", tr.n-40)
	}
	fmt.Printf("\n%d queries completed; makespan %.2f; avg duration %.2f\n",
		len(res.Durations), res.Makespan, res.AvgDuration())
	ids := make([]int, 0, len(res.Durations))
	for id := range res.Durations {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  query %-3d duration %10.2f\n", id, res.Durations[id])
	}
	if *traceOut != "" {
		if err := obs.WriteChromeTrace(*traceOut, simCfg.Trace); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "observability: wrote trace to %s (open in Perfetto)\n", *traceOut)
	}
	if *withMetrics {
		fmt.Println()
		obs.WritePrometheus(os.Stdout, simCfg.Metrics.Snapshot())
	}
}
