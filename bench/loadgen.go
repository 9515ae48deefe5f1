package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/frontdoor"
	"repro/internal/plan"
)

// trafficSpec is the seeded part of a serving workload: who asks, in
// which SLO class, and for which plan.
type trafficSpec struct {
	tenants     int
	latencyFrac float64       // share of requests in the latency class
	deadline    time.Duration // latency-class deadline; the throughput class has none
}

// variant is one distinct request: a (tenant, class, plan) triple with
// its body encoded once, so the generator spends no time marshalling.
type variant struct {
	body     []byte
	class    frontdoor.Class
	deadline time.Duration
	ops      []costmodel.OpWork
}

// traffic is a generated request trace: order indexes variants. The
// plan, class and tenant of each position are three independent seeded
// shuffles of exactly proportioned sequences, so every seed offers the
// same multiset of work in a different order.
type traffic struct {
	variants []variant
	order    []int32
}

const traceLen = 1 << 14

func genTraffic(plans []*plan.Plan, spec trafficSpec, seed int64) (traffic, error) {
	var tr traffic
	for t := 0; t < spec.tenants; t++ {
		for _, class := range []frontdoor.Class{frontdoor.ClassLatency, frontdoor.ClassThroughput} {
			for _, p := range plans {
				req := frontdoor.Request{
					Tenant: fmt.Sprintf("tenant-%d", t),
					Class:  class.String(),
					Ops:    frontdoor.SummarizePlan(p),
				}
				if class == frontdoor.ClassLatency {
					req.DeadlineMS = int64(spec.deadline / time.Millisecond)
				}
				body, err := json.Marshal(req)
				if err != nil {
					return traffic{}, err
				}
				q, err := frontdoor.DecodeRequest(body)
				if err != nil {
					return traffic{}, fmt.Errorf("generated request does not validate: %w", err)
				}
				tr.variants = append(tr.variants, variant{body: body, class: q.Class, deadline: q.Deadline, ops: q.Ops})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(value func(i int) int) []int {
		xs := make([]int, traceLen)
		for i := range xs {
			xs[i] = value(i)
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	planOf := shuffled(func(i int) int { return i % len(plans) })
	tenantOf := shuffled(func(i int) int { return i % spec.tenants })
	latencyN := int(spec.latencyFrac * traceLen)
	classOf := shuffled(func(i int) int {
		if i < latencyN {
			return int(frontdoor.ClassLatency)
		}
		return int(frontdoor.ClassThroughput)
	})
	tr.order = make([]int32, traceLen)
	for i := range tr.order {
		tr.order[i] = int32((tenantOf[i]*2+classOf[i])*len(plans) + planOf[i])
	}
	return tr, nil
}

// Request outcomes as the client tallies them.
const (
	outAdmitted = iota
	outShed
	outRejected
	outFailed // transport error, backend error, or a reply that is not a valid Response
)

// sample is one request as its client saw it.
type sample struct {
	start, end int64 // ns on the run clock; start is the due time in an open loop
	seq        int64 // sent in seqHeader: joins the sample to its ingress span
	variant    int32
	outcome    uint8
	waitMS     float64 // Response.WaitMS
	execMS     float64 // Response.LatencyMS - WaitMS
	predS      float64 // cost-model prediction taken just before submit (traced runs)
}

func (s sample) latencyMS() float64 { return float64(s.end-s.start) / 1e6 }

// loadgen issues the traffic to one stack from inside the benchmark
// process. It never runs more closed-loop clients or pacing goroutines
// than GOMAXPROCS.
type loadgen struct {
	st      *stack
	traffic traffic
	tr      *tracer // nil on untraced runs
	origin  time.Time
	seq     atomic.Int64
	// tally counts every request since the stack started by the sample
	// outcome; admitted counts replies whose Outcome was "admitted" even
	// when they failed the client's checks. checkServing compares both
	// with fd.Stats().
	tally    [4]atomic.Int64
	admitted atomic.Int64
	// failures keeps the first few failed requests' reasons for the
	// violation report.
	failMu   sync.Mutex
	failures []string
	clients  []*http.Client // one keep-alive connection each (closed loop)
	cursor   []int          // each client's position in traffic.order
	pool     *http.Client   // bounded keep-alive pool (open loop)
}

// openLoopInFlight bounds the open loop's outstanding requests at the
// front door's total queue capacity (4 tenants x 2 classes x 256), so
// the pool never fills before the door's own queues do; a full pool
// would stall the pacer, which shows as lateness.
const openLoopInFlight = 2048

func newLoadgen(st *stack, tf traffic, clients int, tr *tracer) *loadgen {
	g := &loadgen{st: st, traffic: tf, tr: tr, origin: time.Now()}
	if tr != nil {
		tr.origin = g.origin
	}
	for i := 0; i < clients; i++ {
		g.clients = append(g.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
		g.cursor = append(g.cursor, i*len(tf.order)/clients)
	}
	g.pool = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: openLoopInFlight, MaxIdleConnsPerHost: openLoopInFlight},
		Timeout:   30 * time.Second,
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
	g.pool.CloseIdleConnections()
}

func (g *loadgen) now() int64 { return int64(time.Since(g.origin)) }

// do sends one request, classifies the reply and tallies it.
// start < 0 means "now".
func (g *loadgen) do(client *http.Client, v *variant, vi int32, start int64) sample {
	s := g.send(client, v, vi, start)
	g.tally[s.outcome].Add(1)
	return s
}

func (g *loadgen) send(client *http.Client, v *variant, vi int32, start int64) sample {
	seq := g.seq.Add(1)
	s := sample{seq: seq, variant: vi, start: start, outcome: outFailed}
	if g.tr != nil {
		s.predS, _ = g.st.fd.Estimator().PredictTotals(v.ops)
	}
	req, err := http.NewRequest(http.MethodPost, g.st.url, bytes.NewReader(v.body))
	if err != nil {
		s.end = g.now()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	if s.start < 0 {
		s.start = g.now()
	}
	resp, err := client.Do(req)
	var reply frontdoor.Response
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			err = json.Unmarshal(body, &reply)
		}
	}
	s.end = g.now()
	if g.tr != nil {
		g.tr.record(layerClient, seq, s.start, s.end)
	}
	if err != nil {
		g.noteFailure(fmt.Sprintf("request %d: %v", seq, err))
		return s
	}
	s.waitMS = reply.WaitMS
	if reply.Outcome == "admitted" {
		g.admitted.Add(1)
	}
	switch {
	case reply.Outcome == "admitted" && resp.StatusCode == http.StatusOK && reply.Error == "" && reply.LatencyMS > 0:
		s.outcome = outAdmitted
		s.execMS = reply.LatencyMS - reply.WaitMS
	case reply.Outcome == "shed":
		s.outcome = outShed
	case reply.Outcome == "rejected":
		s.outcome = outRejected
	default:
		g.noteFailure(fmt.Sprintf("request %d: status %d, reply %+v", seq, resp.StatusCode, reply))
	}
	return s
}

func (g *loadgen) noteFailure(reason string) {
	g.failMu.Lock()
	defer g.failMu.Unlock()
	if len(g.failures) < 5 {
		g.failures = append(g.failures, reason)
	}
}

// closedLoop runs every client back to back over tf for d: each sends
// its next request only when the previous one has been answered.
func (g *loadgen) closedLoop(d time.Duration, tf *traffic) []sample {
	perClient := make([][]sample, len(g.clients))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				vi := tf.order[g.cursor[c]%len(tf.order)]
				g.cursor[c]++
				perClient[c] = append(perClient[c], g.do(g.clients[c], &tf.variants[vi], vi, -1))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// stepResult is one fixed-rate open-loop step.
type stepResult struct {
	rate       float64
	t0         int64         // step start on the run clock
	elapsed    time.Duration // the step's nominal length
	samples    []sample
	latenessMS []float64 // how late after its due time each request was launched
	queuedMid  int       // front-door backlog when half the step had been offered
	queuedEnd  int       // and when all of it had
}

// openStep offers rate requests per second for d on an absolute
// schedule: request i is due at (i+u_i)/rate with seeded jitter u_i in
// [0,1), whatever happened to the requests before it. One pacing
// goroutine (the caller) launches each request over the bounded
// keep-alive pool; latency counts from the due time, so a stalled
// generator cannot hide queueing.
func (g *loadgen) openStep(rate float64, d time.Duration, rng *rand.Rand) stepResult {
	n := int(rate * d.Seconds())
	res := stepResult{rate: rate, elapsed: d, samples: make([]sample, n), latenessMS: make([]float64, n)}
	inFlight := make(chan struct{}, openLoopInFlight) // semaphore
	var wg sync.WaitGroup
	cursor := &g.cursor[0]
	begin := time.Now()
	base := g.now()
	res.t0 = base
	for i := 0; i < n; i++ {
		due := time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
		if wait := due - time.Since(begin); wait > 0 {
			time.Sleep(wait)
		}
		inFlight <- struct{}{}
		res.latenessMS[i] = ms(time.Since(begin) - due)
		vi := g.traffic.order[*cursor%len(g.traffic.order)]
		*cursor++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res.samples[i] = g.do(g.pool, &g.traffic.variants[vi], vi, base+int64(due))
			<-inFlight
		}(i)
		if i == n/2 {
			res.queuedMid = g.st.fd.Stats().Queued
		}
	}
	res.queuedEnd = g.st.fd.Stats().Queued
	wg.Wait()
	return res
}
