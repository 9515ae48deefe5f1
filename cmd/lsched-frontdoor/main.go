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
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/provenance"
	"repro/internal/workload"
)

func benchPlans(bench string, sf float64) ([]*plan.Plan, error) {
	switch bench {
	case "tpch":
		return workload.TPCH(sf), nil
	case "ssb":
		return workload.SSB(sf), nil
	case "job":
		return workload.JOB(), nil
	}
	return nil, fmt.Errorf("unknown benchmark %q", bench)
}

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

	plans, err := benchPlans(*bench, *sf)
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

	var ctrl frontdoor.Controller
	switch *controller {
	case "learned":
		ctrl = frontdoor.NewLearned(lsched.NewAdmissionHead(nn.NewParams(*seed)))
	case "heuristic":
		ctrl = frontdoor.NewHeuristic()
	default:
		log.Fatalf("unknown controller %q", *controller)
	}

	// Decision provenance: flight recorder spilling to -provenance-out,
	// a self-calibrating drift detector over the admission features, and
	// per-tenant/class SLO burn tracking. All three serve via obs.
	rec := provenance.NewRecorder(provenance.Options{})
	rec.Instrument(reg)
	rec.SetFeatureNames(provenance.KindAdmit, lsched.AdmissionFeatureNames())
	drift := provenance.NewDriftDetector(provenance.DriftConfig{
		Names:      lsched.AdmissionFeatureNames(),
		RefSamples: 512, // no training-time snapshot: calibrate on the first live window
	})
	drift.Instrument(reg)
	rec.SetDrift(provenance.KindAdmit, drift)
	slo := provenance.NewSLOTracker(provenance.SLOConfig{})
	slo.Instrument(reg)
	var provFile *os.File
	if *provOut != "" {
		provFile, err = os.Create(*provOut)
		if err != nil {
			log.Fatal(err)
		}
		rec.AttachSink(provFile, 256)
	}

	pool, err := frontdoor.NewPlanPool(frontdoor.NewEngineBackend(live, sched), plans)
	if err != nil {
		log.Fatal(err)
	}
	fd, err := frontdoor.New(frontdoor.Options{
		Backend:     pool,
		Controller:  ctrl,
		MaxInFlight: *slots,
		Shards:      *shards,
		QueueCap:    *queueCap,
		Rate:        *rate,
		Burst:       *burst,
		Metrics:     reg,
		Provenance:  rec,
		SLO:         slo,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *obsAddr != "" {
		o := obs.NewServer(obs.Options{
			Metrics:    reg,
			FrontDoor:  fd.Status,
			Provenance: rec,
			Drift:      drift,
			SLO:        slo,
			Health: func() obs.HealthStatus {
				st := obs.HealthStatus{Ready: true, Engine: "up"}
				if pv, ok := ctrl.(interface{ PolicyVersion() int }); ok {
					st.PolicyVersion = pv.PolicyVersion()
				}
				if fd.Draining() {
					st.Ready = false
					st.Draining = true
					st.Detail = "front door draining"
				}
				return st
			},
		})
		addr, err := o.Start(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer o.Close()
		log.Printf("observability on http://%s (/metrics /frontdoor /decisions /drift /slo /healthz)", addr)
	}

	mux := http.NewServeMux()
	mux.Handle("/query", fd.Handler())
	srv := &http.Server{Addr: *listen, Handler: mux}
	nShards := len(fd.Status().(frontdoor.StatusData).Shards)
	go func() {
		log.Printf("front door on %s (%d plans from %s sf=%g, %s scheduler, %s admission, %d slots, %d shards)",
			*listen, len(plans), *bench, *sf, sched.Name(), ctrl.Name(), *slots, nShards)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("draining (timeout %v)...", *drain)
	if !fd.Shutdown(*drain) {
		log.Printf("drain timed out; exiting with queries in flight")
	}
	srv.Close()
	if provFile != nil {
		if err := rec.Flush(); err != nil {
			log.Printf("provenance flush: %v", err)
		}
		if err := provFile.Close(); err != nil {
			log.Printf("provenance close: %v", err)
		}
		ps := rec.Stats()
		log.Printf("provenance: %d decisions recorded, %d joined, spilled to %s", ps.Recorded, ps.Joined, *provOut)
	}
	st := fd.Stats()
	log.Printf("final: submitted=%d admitted=%d shed=%d rejected=%d", st.Submitted, st.Admitted, st.Shed, st.Rejected)
}
