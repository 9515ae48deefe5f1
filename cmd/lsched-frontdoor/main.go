// Command lsched-frontdoor serves the multi-tenant query front door
// over HTTP: clients POST plan summaries to /query, the admission
// controller (learned or heuristic) decides admit/defer/shed against
// per-tenant bounded queues and SLO classes, and admitted queries
// execute on the live engine over a synthetic benchmark catalog.
// Observability endpoints (per-tenant admission counters, per-class
// latency histograms, /frontdoor status) serve on a second address.
//
// Usage:
//
//	lsched-frontdoor -listen :8080 -obs :9090
//	lsched-frontdoor -controller heuristic -slots 4 -rate 50
//	lsched-frontdoor -bench tpch -sf 0.05 -sched quickstep
//
// Drive it with cmd/lsched-loadgen.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/heuristics"
	"repro/internal/ingress"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	listen := flag.String("listen", ":8080", "query ingress address (POST /query)")
	obsAddr := flag.String("obs", "", "observability address (/metrics, /frontdoor, ...), e.g. :9090")
	bench := flag.String("bench", "ssb", "benchmark backing the synthetic catalog: tpch, ssb, or job")
	sf := flag.Float64("sf", 0.1, "benchmark scale factor (ignored for job)")
	schedName := flag.String("sched", "fair", "execution scheduler: fair or quickstep")
	controller := flag.String("controller", "learned", "admission controller: learned or heuristic")
	slots := flag.Int("slots", 8, "max concurrently executing queries")
	shards := flag.Int("shards", 0, "admission shards, rounded up to a power of two (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue-cap", 256, "per-tenant per-class queue bound")
	rate := flag.Float64("rate", 0, "per-tenant rate limit in queries/sec (0 disables)")
	burst := flag.Float64("burst", 0, "rate-limit burst (defaults to rate)")
	threads := flag.Int("threads", 4, "live engine worker threads")
	seed := flag.Int64("seed", 1, "seed for the catalog and admission head")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
	provOut := flag.String("provenance-out", "", "record admission decisions to this trace file (replayable; see lsched-policyctl explain)")
	flag.Parse()

	plans, err := workload.Plans(workload.Benchmark(*bench), *sf)
	if err != nil {
		log.Fatal(err)
	}
	catalog, err := workload.SyntheticCatalog(plans, 2048, 8, *seed)
	if err != nil {
		log.Fatal(err)
	}
	reg := metrics.NewRegistry()
	live := engine.NewLive(catalog, engine.LiveConfig{Threads: *threads, Metrics: reg})
	if err := live.Validate(plans); err != nil {
		log.Fatal(err)
	}
	var sched engine.Scheduler
	switch *schedName {
	case "fair":
		sched = heuristics.Fair{}
	case "quickstep":
		sched = heuristics.Quickstep{}
	default:
		log.Fatalf("unknown scheduler %q", *schedName)
	}
	pool, err := frontdoor.NewPlanPool(frontdoor.NewEngineBackend(live, sched), plans)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d plans from %s sf=%g under the %s scheduler on %d threads", len(plans), *bench, *sf, sched.Name(), *threads)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = ingress.Serve(ctx, *listen, *obsAddr, *controller, *seed, frontdoor.Options{
		Backend:     pool,
		MaxInFlight: *slots,
		Shards:      *shards,
		QueueCap:    *queueCap,
		Rate:        *rate,
		Burst:       *burst,
		Metrics:     reg,
	}, obs.Options{}, *provOut, *drain)
	if err != nil {
		log.Fatal(err)
	}
}
