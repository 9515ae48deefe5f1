// Command lsched-node runs one cluster worker: a live engine behind a
// plan pool, a hot-swappable policy slot the coordinator pushes
// checkpoints into, and the ClusterNode RPC surface
// (Submit/Health/Install/Drain) mounted on an rpcsched server. Point
// cmd/lsched-cluster at a fleet of these.
//
// Usage:
//
//	lsched-node -listen :7070 -id node-0
//	lsched-node -listen :7071 -id node-1 -bench tpch -sf 0.05 -obs :9091
//
// The node starts serving the -sched heuristic; a coordinator running
// with -store/-sync rolls learned policy checkpoints out to it, and
// each install swaps the serving scheduler without pausing dispatch.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/rpcsched"
	"repro/internal/serving"
	"repro/internal/workload"
)

func main() {
	listen := flag.String("listen", ":7070", "ClusterNode RPC address")
	obsAddr := flag.String("obs", "", "observability address (/metrics, /policy, ...), e.g. :9091")
	id := flag.String("id", "", "node identity in health reports and provenance (default node-<listen>)")
	bench := flag.String("bench", "ssb", "benchmark backing the synthetic catalog: tpch, ssb, or job")
	sf := flag.Float64("sf", 0.1, "benchmark scale factor (ignored for job)")
	schedName := flag.String("sched", "fair", "initial scheduler before any rollout: fair or quickstep")
	threads := flag.Int("threads", 4, "live engine worker threads")
	seed := flag.Int64("seed", 1, "seed for the catalog and the rollout loader's agent")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-connection RPC I/O deadline (0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
	provOut := flag.String("provenance-out", "", "record decisions to this trace file (node-stamped; merge across nodes for lsched-policyctl explain)")
	flag.Parse()

	if *id == "" {
		*id = "node-" + *listen
	}
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
	var initial engine.Scheduler
	switch *schedName {
	case "fair":
		initial = heuristics.Fair{}
	case "quickstep":
		initial = heuristics.Quickstep{}
	default:
		log.Fatalf("unknown scheduler %q", *schedName)
	}
	hot := serving.NewHotAgent(initial, 0)
	hot.Instrument(reg)

	rec := provenance.NewRecorder(provenance.Options{})
	rec.Instrument(reg)
	var provFile *os.File
	if *provOut != "" {
		provFile, err = os.Create(*provOut)
		if err != nil {
			log.Fatal(err)
		}
		rec.AttachSink(provFile, 256)
	}

	pool, err := frontdoor.NewPlanPool(frontdoor.NewEngineBackend(live, hot), plans)
	if err != nil {
		log.Fatal(err)
	}
	node, err := cluster.NewNode(cluster.NodeOptions{
		ID:         *id,
		Backend:    pool,
		Hot:        hot,
		Loader:     serving.LSchedLoader(lsched.DefaultOptions(*seed)),
		Provenance: rec,
		Metrics:    reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv, err := rpcsched.NewServer(nil, rpcsched.ServerOptions{IOTimeout: *ioTimeout})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.MountNode(srv, node); err != nil {
		log.Fatal(err)
	}

	if *obsAddr != "" {
		o := obs.NewServer(obs.Options{
			Metrics: reg,
			Policy: func() any {
				return map[string]any{"node": *id, "serving_version": node.PolicyVersion()}
			},
			Health: func() obs.HealthStatus {
				hr := node.Health()
				st := obs.HealthStatus{Ready: !hr.Draining, Engine: "up", PolicyVersion: hr.PolicyVersion}
				if hr.Draining {
					st.Draining = true
					st.Detail = "node draining"
				}
				return st
			},
		})
		addr, err := o.Start(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer o.Close()
		log.Printf("observability on http://%s (/metrics /policy /healthz)", addr)
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		log.Printf("node %s on %s (%d plans from %s sf=%g, %s initial policy, %d threads)",
			*id, lis.Addr(), len(plans), *bench, *sf, initial.Name(), *threads)
		if err := srv.Serve(lis); err != nil {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("draining (timeout %v)...", *drain)
	if !node.Drain(*drain) {
		log.Printf("drain timed out; exiting with queries in flight")
	}
	if err := srv.Shutdown(*drain); err != nil {
		log.Printf("rpc shutdown: %v", err)
	}
	if provFile != nil {
		if err := rec.Flush(); err != nil {
			log.Printf("provenance flush: %v", err)
		}
		provFile.Close()
	}
	hr := node.Health()
	log.Printf("final: completed=%d failed=%d serving_version=%d", hr.Completed, hr.Failed, hr.PolicyVersion)
}
