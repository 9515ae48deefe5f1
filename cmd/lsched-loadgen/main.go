// Command lsched-loadgen drives the query front door with open-loop
// traffic: submissions are paced by the clock, never by completions —
// the regime where a missing admission controller lets queues grow
// without bound.
//
// Remote mode POSTs plan summaries to a running lsched-frontdoor:
//
//	lsched-loadgen -target http://localhost:8080/query -rate 200 -n 2000
//	lsched-loadgen -target ... -tenants 8 -latency-frac 0.7 -deadline 50ms
//
// With -targets, submissions round-robin across several ingresses (a
// fleet of front doors, or lsched-cluster coordinators):
//
//	lsched-loadgen -targets http://h1:8080/query,http://h2:8080/query -rate 400
//
// A/B mode (-ab) skips the network: it builds two identical in-process
// front doors over the live engine — one with the heuristic
// admit-everything baseline, one with the learned admission head — and
// replays the same seeded overload trace against each, reporting the
// p99 of admitted latency-sensitive queries and the shed rate side by
// side:
//
//	lsched-loadgen -ab -n 1500 -overload 2 -slots 4
//
// Sweep mode (-sweep) steps the offered load across several multiples
// of the sustainable rate and replays the trace per controller at each
// step, printing the overload curve — admitted latency-class p99 and
// drop rate versus offered load:
//
//	lsched-loadgen -sweep -n 1500 -sweep-loads 0.5,1,1.5,2,3 -slots 4
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

	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	target := flag.String("target", "http://localhost:8080/query", "front door URL (remote mode)")
	targets := flag.String("targets", "", "comma-separated front door URLs; submissions round-robin across them (overrides -target)")
	ab := flag.Bool("ab", false, "in-process learned-vs-heuristic A/B instead of remote traffic")
	sweep := flag.Bool("sweep", false, "in-process stepped offered-load sweep per controller (overload curve)")
	sweepLoads := flag.String("sweep-loads", "0.5,1,1.5,2,3", "comma-separated offered-load multiples for -sweep")
	n := flag.Int("n", 1000, "queries to submit")
	rate := flag.Float64("rate", 100, "offered rate in queries/sec (remote mode)")
	overload := flag.Float64("overload", 2, "offered rate as a multiple of sustainable (-ab mode)")
	tenants := flag.Int("tenants", 4, "distinct tenants")
	latencyFrac := flag.Float64("latency-frac", 0.5, "fraction of queries in the latency SLO class")
	deadline := flag.Duration("deadline", 25*time.Millisecond, "latency-class deadline")
	bench := flag.String("bench", "ssb", "benchmark to sample plans from: tpch, ssb, or job")
	sf := flag.Float64("sf", 0.1, "benchmark scale factor")
	slots := flag.Int("slots", 4, "front door executor slots (-ab mode)")
	threads := flag.Int("threads", 4, "live engine worker threads (-ab mode)")
	shards := flag.Int("shards", 0, "admission shards for in-process front doors (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "trace seed")
	flag.Parse()

	plans := benchPlans(*bench, *sf)
	if *sweep {
		loads, err := parseLoads(*sweepLoads)
		if err != nil {
			log.Fatal(err)
		}
		runSweep(plans, *n, loads, *tenants, *latencyFrac, *deadline, *slots, *threads, *seed, *shards)
		return
	}
	if *ab {
		runAB(plans, *n, *overload, *tenants, *latencyFrac, *deadline, *slots, *threads, *seed, *shards)
		return
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

func benchPlans(bench string, sf float64) []*plan.Plan {
	switch bench {
	case "tpch":
		return workload.TPCH(sf)
	case "ssb":
		return workload.SSB(sf)
	case "job":
		return workload.JOB()
	}
	log.Fatalf("unknown benchmark %q", bench)
	return nil
}

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		var x float64
		if _, err := fmt.Sscanf(f, "%g", &x); err != nil || x <= 0 {
			return nil, fmt.Errorf("-sweep-loads: bad multiple %q", f)
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sweep-loads is empty")
	}
	return out, nil
}

// spec is one pre-generated trace entry, shared verbatim across A/B
// arms so both controllers see the same offered load.
type spec struct {
	tenant   string
	class    frontdoor.Class
	deadline time.Duration
	planIdx  int
}

func genTrace(plans []*plan.Plan, n, tenants int, latencyFrac float64, deadline time.Duration, seed int64) []spec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]spec, n)
	for i := range out {
		s := spec{
			tenant:  fmt.Sprintf("tenant-%d", rng.Intn(tenants)),
			class:   frontdoor.ClassThroughput,
			planIdx: rng.Intn(len(plans)),
		}
		if rng.Float64() < latencyFrac {
			s.class = frontdoor.ClassLatency
			s.deadline = deadline
		}
		out[i] = s
	}
	return out
}

// tally accumulates dispositions per SLO class.
type tally struct {
	mu        sync.Mutex
	admitted  [2]int
	shed      [2]int
	rejected  [2]int
	latencies [2][]time.Duration // admitted end-to-end latencies
}

func (t *tally) record(class frontdoor.Class, outcome, latencyMS float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch outcome {
	case 0:
		t.admitted[class]++
		t.latencies[class] = append(t.latencies[class], time.Duration(latencyMS*float64(time.Millisecond)))
	case 1:
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

// runRemote offers the trace to one or more front doors; with several
// targets, submissions round-robin across them (a poor man's client-side
// balancer for a fleet of lsched-frontdoor or lsched-cluster ingresses).
func runRemote(targets []string, plans []*plan.Plan, n int, rate float64, tenants int, latencyFrac float64, deadline time.Duration, seed int64) {
	trace := genTrace(plans, n, tenants, latencyFrac, deadline, seed)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	var tl tally
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	for i, s := range trace {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		req := frontdoor.Request{
			Tenant:     s.tenant,
			Class:      s.class.String(),
			DeadlineMS: int64(s.deadline / time.Millisecond),
			Ops:        frontdoor.SummarizePlan(plans[s.planIdx]),
		}
		body, _ := json.Marshal(req)
		target := targets[i%len(targets)]
		wg.Add(1)
		go func(s spec) {
			defer wg.Done()
			resp, err := client.Post(target, "application/json", bytes.NewReader(body))
			if err != nil {
				tl.record(s.class, 2, 0)
				return
			}
			defer resp.Body.Close()
			var r frontdoor.Response
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				tl.record(s.class, 2, 0)
				return
			}
			switch r.Outcome {
			case "admitted":
				tl.record(s.class, 0, float64(r.LatencyMS))
			case "shed":
				tl.record(s.class, 1, 0)
			default:
				tl.record(s.class, 2, 0)
			}
		}(s)
	}
	wg.Wait()
	fmt.Printf("offered %d queries at %.0f q/s to %s in %v\n",
		n, rate, strings.Join(targets, ","), time.Since(start).Round(time.Millisecond))
	tl.report("remote")
}

// curvePoint extracts the latency-class overload-curve coordinates
// from a finished tally: admitted p99 and the drop fraction.
func (t *tally) curvePoint() (p99 time.Duration, dropPct float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := frontdoor.ClassLatency
	_, _, p99 = percentiles(t.latencies[c])
	total := t.admitted[c] + t.shed[c] + t.rejected[c]
	if total > 0 {
		dropPct = 100 * float64(t.shed[c]+t.rejected[c]) / float64(total)
	}
	return p99, dropPct
}

// liveArm builds one complete A/B arm: a fresh catalog-backed live
// engine plus a front door under the given controller.
func liveArm(plans []*plan.Plan, ctrl frontdoor.Controller, slots, threads int, seed int64, shards int) *frontdoor.FrontDoor {
	catalog, err := workload.SyntheticCatalog(plans, 2048, 8, seed)
	if err != nil {
		log.Fatal(err)
	}
	live := engine.NewLive(catalog, engine.LiveConfig{Threads: threads})
	fd, err := frontdoor.New(frontdoor.Options{
		Backend:     frontdoor.NewEngineBackend(live, heuristics.Fair{}),
		Controller:  ctrl,
		MaxInFlight: slots,
		Shards:      shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	return fd
}

// estimateService measures the mean live execution time of the traced
// plans by running a sample sequentially — the denominator for the
// sustainable rate.
func estimateService(plans []*plan.Plan, trace []spec, threads int, seed int64) time.Duration {
	catalog, err := workload.SyntheticCatalog(plans, 2048, 8, seed)
	if err != nil {
		log.Fatal(err)
	}
	live := engine.NewLive(catalog, engine.LiveConfig{Threads: threads})
	sample := 8
	if len(trace) < sample {
		sample = len(trace)
	}
	start := time.Now()
	for i := 0; i < sample; i++ {
		if _, err := live.RunOne(heuristics.Fair{}, plans[trace[i].planIdx].Clone()); err != nil {
			log.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(sample)
}

// playTrace offers the trace to one front door open-loop at the given
// inter-arrival interval, waits for every ticket to resolve, drains the
// door, and returns the tally.
func playTrace(fd *frontdoor.FrontDoor, plans []*plan.Plan, trace []spec, interval time.Duration) *tally {
	var wg sync.WaitGroup
	var tl tally
	start := time.Now()
	for i, s := range trace {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		req := frontdoor.Request{
			Tenant:     s.tenant,
			Class:      s.class.String(),
			DeadlineMS: int64(s.deadline / time.Millisecond),
			Ops:        frontdoor.SummarizePlan(plans[s.planIdx]),
		}
		q, err := req.Validate()
		if err != nil {
			log.Fatal(err)
		}
		q.Payload = plans[s.planIdx].Clone()
		tk, err := fd.Submit(q)
		if err != nil {
			tl.record(s.class, 2, 0)
			continue
		}
		wg.Add(1)
		go func(s spec, tk *frontdoor.Ticket) {
			defer wg.Done()
			d := <-tk.Done()
			switch d.Outcome {
			case frontdoor.OutcomeAdmitted:
				tl.record(s.class, 0, float64(d.Latency)/float64(time.Millisecond))
			case frontdoor.OutcomeShed:
				tl.record(s.class, 1, 0)
			default:
				tl.record(s.class, 2, 0)
			}
		}(s, tk)
	}
	wg.Wait()
	if !fd.Shutdown(30 * time.Second) {
		log.Fatal("drain timed out")
	}
	return &tl
}

// abArms builds the two controllers every in-process mode compares.
// Fresh instances per call: controller state (the learned head's
// online updates) must not leak across arms or sweep steps.
func abArms(seed int64) []struct {
	name string
	ctrl frontdoor.Controller
} {
	return []struct {
		name string
		ctrl frontdoor.Controller
	}{
		{"heuristic", frontdoor.NewHeuristic()},
		{"learned", frontdoor.NewLearned(lsched.NewAdmissionHead(nn.NewParams(seed)))},
	}
}

func runAB(plans []*plan.Plan, n int, overload float64, tenants int, latencyFrac float64, deadline time.Duration, slots, threads int, seed int64, shards int) {
	trace := genTrace(plans, n, tenants, latencyFrac, deadline, seed)
	service := estimateService(plans, trace, threads, seed)
	sustainable := float64(slots) / service.Seconds()
	interval := time.Duration(float64(time.Second) / (sustainable * overload))
	fmt.Printf("service≈%v, sustainable≈%.0f q/s, offering %.1fx (%d queries, %d tenants, %.0f%% latency-class, deadline %v)\n",
		service.Round(time.Microsecond), sustainable, overload, n, tenants, 100*latencyFrac, deadline)

	for _, arm := range abArms(seed) {
		fd := liveArm(plans, arm.ctrl, slots, threads, seed, shards)
		playTrace(fd, plans, trace, interval).report(arm.name)
	}
}

// runSweep replays the same seeded trace at each offered-load multiple
// for each controller and prints the overload curve: latency-class p99
// and drop rate versus offered load. Each (arm, load) cell gets a fresh
// front door and a fresh controller so steps are independent.
func runSweep(plans []*plan.Plan, n int, loads []float64, tenants int, latencyFrac float64, deadline time.Duration, slots, threads int, seed int64, shards int) {
	trace := genTrace(plans, n, tenants, latencyFrac, deadline, seed)
	service := estimateService(plans, trace, threads, seed)
	sustainable := float64(slots) / service.Seconds()
	fmt.Printf("service≈%v, sustainable≈%.0f q/s, sweeping %v (%d queries/step, %d tenants, %.0f%% latency-class, deadline %v)\n",
		service.Round(time.Microsecond), sustainable, loads, n, tenants, 100*latencyFrac, deadline)

	type point struct {
		p99  time.Duration
		drop float64
	}
	curves := map[string][]point{}
	var names []string
	for _, x := range loads {
		interval := time.Duration(float64(time.Second) / (sustainable * x))
		for _, arm := range abArms(seed) {
			fd := liveArm(plans, arm.ctrl, slots, threads, seed, shards)
			tl := playTrace(fd, plans, trace, interval)
			tl.report(fmt.Sprintf("%s x%.1f", arm.name, x))
			p99, drop := tl.curvePoint()
			if _, seen := curves[arm.name]; !seen {
				names = append(names, arm.name)
			}
			curves[arm.name] = append(curves[arm.name], point{p99, drop})
		}
	}

	fmt.Printf("\noverload curve (latency class, admitted p99 / dropped %%):\n")
	fmt.Printf("%-8s", "load")
	for _, name := range names {
		fmt.Printf(" %22s", name)
	}
	fmt.Println()
	for i, x := range loads {
		fmt.Printf("%-8s", fmt.Sprintf("x%.1f", x))
		for _, name := range names {
			pt := curves[name][i]
			fmt.Printf(" %15v %5.1f%%", pt.p99.Round(10*time.Microsecond), pt.drop)
		}
		fmt.Println()
	}
}
