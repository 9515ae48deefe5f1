// Command lsched-loadgen drives a running query front door with
// open-loop traffic: submissions are paced by the clock, never by
// completions — the regime where a missing admission controller lets
// queues grow without bound. It POSTs plan summaries to an
// lsched-frontdoor or lsched-cluster ingress:
//
//	lsched-loadgen -target http://localhost:8080/query -rate 200 -n 2000
//	lsched-loadgen -target ... -tenants 8 -latency-frac 0.7 -deadline 50ms
//
// With -targets, submissions round-robin across several ingresses (a
// fleet of front doors, or lsched-cluster coordinators):
//
//	lsched-loadgen -targets http://h1:8080/query,http://h2:8080/query -rate 400
//
// The learned-vs-heuristic admission comparison and the overload curve
// are measured by BenchmarkAdmissionAB / BenchmarkOverloadCurve
// (internal/frontdoor) and the benchmark's serve_light_open workload
// (bench/), not here.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	target := flag.String("target", "http://localhost:8080/query", "front door URL")
	targets := flag.String("targets", "", "comma-separated front door URLs; submissions round-robin across them (overrides -target)")
	n := flag.Int("n", 1000, "queries to submit")
	rate := flag.Float64("rate", 100, "offered rate in queries/sec")
	tenants := flag.Int("tenants", 4, "distinct tenants")
	latencyFrac := flag.Float64("latency-frac", 0.5, "fraction of queries in the latency SLO class")
	deadline := flag.Duration("deadline", 25*time.Millisecond, "latency-class deadline")
	bench := flag.String("bench", "ssb", "benchmark to sample plans from: tpch, ssb, or job")
	sf := flag.Float64("sf", 0.1, "benchmark scale factor")
	seed := flag.Int64("seed", 1, "trace seed")
	flag.Parse()

	plans, err := workload.Plans(workload.Benchmark(*bench), *sf)
	if err != nil {
		log.Fatal(err)
	}
	urls := []string{*target}
	if *targets != "" {
		urls = urls[:0]
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			log.Fatal("-targets has no usable URLs")
		}
	}
	runRemote(urls, plans, *n, *rate, *tenants, *latencyFrac, *deadline, *seed)
}

// tally accumulates dispositions per SLO class.
type tally struct {
	mu        sync.Mutex
	admitted  [2]int
	shed      [2]int
	rejected  [2]int
	latencies [2][]time.Duration // admitted end-to-end latencies
}

// record files one response by its wire outcome; anything that is not
// an admission or a shed (rejections, transport errors) counts rejected.
func (t *tally) record(class frontdoor.Class, outcome string, latencyMS float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch outcome {
	case "admitted":
		t.admitted[class]++
		t.latencies[class] = append(t.latencies[class], time.Duration(latencyMS*float64(time.Millisecond)))
	case "shed":
		t.shed[class]++
	default:
		t.rejected[class]++
	}
}

func percentiles(ds []time.Duration) (p50, p95, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], ds[len(ds)*95/100], ds[len(ds)*99/100]
}

func (t *tally) report(label string) {
	for _, c := range []frontdoor.Class{frontdoor.ClassLatency, frontdoor.ClassThroughput} {
		a, s, r := t.admitted[c], t.shed[c], t.rejected[c]
		total := a + s + r
		if total == 0 {
			continue
		}
		p50, p95, p99 := percentiles(t.latencies[c])
		fmt.Printf("%-10s %-10s admitted=%-5d shed=%-5d rejected=%-5d shed%%=%5.1f p50=%-10v p95=%-10v p99=%v\n",
			label, c, a, s, r, 100*float64(s+r)/float64(total), p50, p95, p99)
	}
}

// runRemote offers n seeded queries to one or more front doors; with
// several targets, submissions round-robin across them (a poor man's
// client-side balancer for a fleet of lsched-frontdoor or lsched-cluster
// ingresses).
func runRemote(targets []string, plans []*plan.Plan, n int, rate float64, tenants int, latencyFrac float64, deadline time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	var tl tally
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		class := frontdoor.ClassThroughput
		req := frontdoor.Request{
			Tenant: fmt.Sprintf("tenant-%d", rng.Intn(tenants)),
			Ops:    frontdoor.SummarizePlan(plans[rng.Intn(len(plans))]),
		}
		if rng.Float64() < latencyFrac {
			class = frontdoor.ClassLatency
			req.DeadlineMS = int64(deadline / time.Millisecond)
		}
		req.Class = class.String()
		body, _ := json.Marshal(req)
		target := targets[i%len(targets)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(target, "application/json", bytes.NewReader(body))
			if err != nil {
				tl.record(class, "error", 0)
				return
			}
			defer resp.Body.Close()
			var r frontdoor.Response
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				tl.record(class, "error", 0)
				return
			}
			tl.record(class, r.Outcome, r.LatencyMS)
		}()
	}
	wg.Wait()
	fmt.Printf("offered %d queries at %.0f q/s to %s in %v\n",
		n, rate, strings.Join(targets, ","), time.Since(start).Round(time.Millisecond))
	tl.report("remote")
}
