// Command lsched-cluster runs the coordinator: it fronts a fleet of
// lsched-node workers with the admission front door, routes admitted
// queries by a pluggable policy (least predicted load by default),
// re-dispatches queued work off failed nodes, and — given -store —
// watches a policystore and rolls promoted checkpoints out to every
// node's serving slot (without it, nodes keep whatever policy they
// started with or learn online, and the coordinator only routes).
//
// Usage:
//
//	lsched-cluster -nodes 127.0.0.1:7070,127.0.0.1:7071 -listen :8080
//	lsched-cluster -nodes ... -policy round-robin -obs :9090
//	lsched-cluster -nodes ... -store ./policies -sync 10s
//
// Drive it with cmd/lsched-loadgen (-targets http://host:8080/query).
// The /cluster endpoint on -obs shows per-node health, queue depths,
// and serving policy versions.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/frontdoor"
	"repro/internal/ingress"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policystore"
	"repro/internal/rpcsched"
)

func main() {
	nodesFlag := flag.String("nodes", "", "comma-separated lsched-node RPC addresses (required)")
	listen := flag.String("listen", ":8080", "query ingress address (POST /query)")
	obsAddr := flag.String("obs", "", "observability address (/cluster, /frontdoor, ...), e.g. :9090")
	policyName := flag.String("policy", "least-loaded", "routing policy: least-loaded, round-robin, or tenant-hash")
	storeDir := flag.String("store", "", "policystore directory to watch: promoted checkpoints roll out to every node (empty = no policy distribution)")
	syncEvery := flag.Duration("sync", 10*time.Second, "rollout sync interval for -store")
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
	log.Printf("%s routing, %d queries per node", policy.Name(), *maxPerNode)

	stopWatch := func() {}
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = ingress.Serve(ctx, *listen, *obsAddr, *controller, *seed, frontdoor.Options{
		Backend:     coord,
		MaxInFlight: *slots,
		Shards:      *shards,
		QueueCap:    *queueCap,
		Rate:        *rate,
		Burst:       *burst,
		Metrics:     reg,
	}, obs.Options{Cluster: func() any { return coord.Status() }}, "", *drain)
	stopWatch()
	if !coord.Close(*drain) {
		log.Printf("coordinator drain timed out")
	}
	cst := coord.Status()
	log.Printf("cluster: routed=%d completed=%d failed=%d redispatched=%d lost=%d",
		cst.Routed, cst.Completed, cst.Failed, cst.Redispatched, cst.Routed-cst.Completed-cst.Failed)
	if err != nil {
		log.Fatal(err)
	}
}
