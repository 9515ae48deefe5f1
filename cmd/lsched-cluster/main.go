// Command lsched-cluster runs the coordinator: it fronts a fleet of
// lsched-node workers with the admission front door, routes admitted
// queries by a pluggable policy (least predicted load by default),
// re-dispatches queued work off failed nodes, and — in central mode —
// watches a policystore and rolls promoted checkpoints out to every
// node's serving slot.
//
// Usage:
//
//	lsched-cluster -nodes 127.0.0.1:7070,127.0.0.1:7071 -listen :8080
//	lsched-cluster -nodes ... -policy round-robin -obs :9090
//	lsched-cluster -nodes ... -mode central -store ./policies -sync 10s
//
// Drive it with cmd/lsched-loadgen (-remote -targets http://host:8080).
// The /cluster endpoint on -obs shows per-node health, queue depths,
// and serving policy versions.
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/frontdoor"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/policystore"
	"repro/internal/rpcsched"
)

func main() {
	nodesFlag := flag.String("nodes", "", "comma-separated lsched-node RPC addresses (required)")
	listen := flag.String("listen", ":8080", "query ingress address (POST /query)")
	obsAddr := flag.String("obs", "", "observability address (/cluster, /frontdoor, ...), e.g. :9090")
	policyName := flag.String("policy", "least-loaded", "routing policy: least-loaded, round-robin, or tenant-hash")
	mode := flag.String("mode", "central", "policy distribution: central (coordinator pushes store checkpoints) or independent (nodes keep their own policies)")
	storeDir := flag.String("store", "", "policystore directory to watch in central mode")
	syncEvery := flag.Duration("sync", 10*time.Second, "central-mode rollout sync interval")
	controller := flag.String("controller", "learned", "admission controller: learned or heuristic")
	slots := flag.Int("slots", 16, "max concurrently executing queries across the cluster")
	shards := flag.Int("shards", 0, "admission shards, rounded up to a power of two (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue-cap", 256, "per-tenant per-class admission queue bound")
	rate := flag.Float64("rate", 0, "per-tenant rate limit in queries/sec (0 disables)")
	burst := flag.Float64("burst", 0, "rate-limit burst (defaults to rate)")
	maxPerNode := flag.Int("max-per-node", 8, "concurrently dispatched queries per node")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "node health probe interval")
	budget := flag.Int("redispatch-budget", 3, "max routing attempts per query across node failures")
	seed := flag.Int64("seed", 1, "seed for the admission head")
	dialAttempts := flag.Int("dial-attempts", 10, "connection attempts per node at startup")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
	flag.Parse()

	if *nodesFlag == "" {
		log.Fatal("lsched-cluster: -nodes is required")
	}
	policy, err := cluster.PolicyByName(*policyName)
	if err != nil {
		log.Fatal(err)
	}
	reg := metrics.NewRegistry()
	coord := cluster.New(cluster.Options{
		Policy:            policy,
		MaxPerNode:        *maxPerNode,
		HeartbeatInterval: *heartbeat,
		RedispatchBudget:  *budget,
		Metrics:           reg,
	})
	retry := rpcsched.RetryOptions{Attempts: *dialAttempts}
	for _, addr := range strings.Split(*nodesFlag, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		client, err := cluster.DialNode("tcp", addr, retry)
		if err != nil {
			log.Fatalf("dial node %s: %v", addr, err)
		}
		id := addr
		if hr, err := client.Health(); err == nil && hr.ID != "" {
			id = hr.ID // the node's self-reported identity
		}
		if err := coord.AddNode(id, client); err != nil {
			log.Fatal(err)
		}
		log.Printf("node %s at %s", id, addr)
	}
	if err := coord.Start(); err != nil {
		log.Fatal(err)
	}

	var stopWatch func()
	switch *mode {
	case "central":
		if *storeDir != "" {
			store, err := policystore.Open(*storeDir)
			if err != nil {
				log.Fatal(err)
			}
			stopWatch = coord.WatchPolicy(store, *syncEvery, func(err error) {
				log.Printf("rollout: %v", err)
			})
			log.Printf("central rollout: watching %s every %v", *storeDir, *syncEvery)
		}
	case "independent":
		// Nodes keep whatever policy they were started with (or learn
		// online); the coordinator only routes.
		log.Printf("independent mode: no policy distribution")
	default:
		log.Fatalf("unknown mode %q", *mode)
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
	fd, err := frontdoor.New(frontdoor.Options{
		Backend:     coord,
		Controller:  ctrl,
		MaxInFlight: *slots,
		Shards:      *shards,
		QueueCap:    *queueCap,
		Rate:        *rate,
		Burst:       *burst,
		Metrics:     reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *obsAddr != "" {
		o := obs.NewServer(obs.Options{
			Metrics:   reg,
			FrontDoor: fd.Status,
			Cluster:   func() any { return coord.Status() },
			Health: func() obs.HealthStatus {
				st := obs.HealthStatus{Ready: true, Engine: "cluster"}
				if fd.Draining() {
					st.Ready = false
					st.Draining = true
					st.Detail = "coordinator draining"
				}
				return st
			},
		})
		addr, err := o.Start(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer o.Close()
		log.Printf("observability on http://%s (/metrics /frontdoor /cluster /healthz)", addr)
	}

	mux := http.NewServeMux()
	mux.Handle("/query", fd.Handler())
	srv := &http.Server{Addr: *listen, Handler: mux}
	go func() {
		log.Printf("cluster front door on %s (%s routing, %s admission, %d slots)",
			*listen, policy.Name(), ctrl.Name(), *slots)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("draining (timeout %v)...", *drain)
	if !fd.Shutdown(*drain) {
		log.Printf("front door drain timed out")
	}
	if stopWatch != nil {
		stopWatch()
	}
	if !coord.Close(*drain) {
		log.Printf("coordinator drain timed out")
	}
	srv.Close()
	fst := fd.Stats()
	cst := coord.Status()
	lost := cst.Routed - cst.Completed - cst.Failed
	log.Printf("final: submitted=%d admitted=%d shed=%d rejected=%d", fst.Submitted, fst.Admitted, fst.Shed, fst.Rejected)
	log.Printf("cluster: routed=%d completed=%d failed=%d redispatched=%d lost=%d",
		cst.Routed, cst.Completed, cst.Failed, cst.Redispatched, lost)
}
