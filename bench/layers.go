package main

import (
	"fmt"
	"time"

	"repro/internal/frontdoor"
)

// sloTarget is the share of offered latency-class requests that must
// meet the deadline for a rate to count towards max_rate_slo_qps.
const sloTarget = 0.95

// maxLatenessMS is how late the open-loop generator may launch nine in
// ten requests of a step before the step's numbers describe the
// generator, not the server: a fifth of the deadline. Latency counts
// from the due time, so lateness is charged to the server in full.
//
// The limit is on the p90, not the p99 the run also prints: the guest
// loses its processors for 100-400 ms every other run or so (steal
// bursts in /proc/stat), which alone puts a 6.7 s step's p99 lateness at
// 30-100 ms; the end-to-end metrics ride such a stall out as medians, and
// a run must not fail on one. A starved generator moves the p90: it sits
// at 1.0-1.9 ms (timers fire a median 0.5 ms late, and in the overloaded
// hi step the pacer waits its turn behind the server's goroutines),
// which is why the issue's 1 ms is not reachable without spinning a core
// the server needs.
const maxLatenessMS = 5.0

// valid reports whether the generator kept to the step's schedule.
func (s stepResult) valid() bool { return percentile(s.latenessMS, 0.9) <= maxLatenessMS }

func (s span) ms() float64 { return float64(s.end-s.start) / 1e6 }

// setLayers turns one traced serving phase into the per-layer budget.
//
// Request identity is visible from outside across two boundaries: the
// HTTP sequence header joins each client round trip to its handler span
// and to the front door's own clocks in the reply (WaitMS, LatencyMS),
// and the *frontdoor.Query pointer joins stacked backend spans. Those
// joins are made per request and checked: a span that is missing, or
// does not lie inside the one that caused it, is a violation, and
// trace.nested_frac is the share that do. Across the other boundaries
// (handler to backend, coordinator to node) there is no identity — that
// is ROADMAP item 4's request ID — so those self times are differences
// of per-layer sums, checked for span count and sign: every request that
// started after the tracer was switched on finished before it was read.
// By construction the rows add up to the mean client round trip; the
// checks are what can fail.
func (r *report) setLayers(st *stack, ph servingPhase, variants []variant, spans []span, before engineCounters) {
	sum, count := layerTotals(spans)
	requests := float64(len(ph.samples))
	per := func(totalMS float64) float64 { return ratio(totalMS, requests) }

	ingress := make(map[int64]span, count[layerIngress])
	for _, s := range spans {
		if s.layer == layerIngress {
			ingress[s.seq] = s
		}
	}
	var clientSum, ingressSelf, handlerSelf, waitSum, execSum float64
	var waitMS, predRatio []float64
	var admitted, shed, rejected, wasted int
	pairs, nested := 0, 0
	for _, s := range ph.samples {
		waitMS = append(waitMS, s.waitMS)
		switch s.outcome {
		case outAdmitted:
			admitted++
			if !metSLO(s, &variants[s.variant]) {
				wasted++
			}
			if s.execMS > 0 {
				predRatio = append(predRatio, s.predS*1e3/s.execMS)
			}
		case outShed:
			shed++
		case outRejected:
			rejected++
		}
		in, ok := ingress[s.seq]
		if !ok {
			r.violate("trace: request %d has no handler span", s.seq)
			continue
		}
		// What the front door's own clocks account for: queue wait, and
		// dispatch to completion if the request was admitted.
		accounted := s.waitMS + s.execMS
		clientSum += s.latencyMS()
		ingressSelf += s.latencyMS() - in.ms()
		handlerSelf += in.ms() - accounted
		waitSum += s.waitMS
		execSum += s.execMS
		pairs += 2
		if s.start <= in.start && in.end <= s.end {
			nested++
		}
		if accounted <= in.ms() {
			nested++
		}
	}
	for _, s := range spans {
		if s.layer != layerEngine {
			continue
		}
		pairs++
		if s.parent >= 0 && spans[s.parent].start <= s.start && s.end <= spans[s.parent].end {
			nested++
		}
	}
	r.set("trace.nested_frac", ratio(float64(nested), float64(pairs)))
	if nested != pairs {
		r.violate("trace: %d of %d joined spans do not lie inside the span that caused them", pairs-nested, pairs)
	}
	// One span per admitted request at every boundary below the handler
	// (a redispatch would add one; on these workloads none happens).
	below := []uint8{layerBackend, layerEngine}
	if st.coord != nil {
		below = append(below, layerRPC, layerNode)
	}
	for _, layer := range below {
		if count[layer] != admitted {
			r.violate("trace: %d %s spans for %d admitted requests", count[layer], layerNames[layer], admitted)
		}
	}

	// The layer just below package frontdoor. On a single node the
	// PlanPool (hash, plan clone) belongs to it.
	belowSum := sum[layerEngine]
	if st.coord != nil {
		belowSum = sum[layerBackend]
	}
	// Handler time the front door's clocks do not cover (decode, submit,
	// reply), joined per request, plus its dispatch and completion
	// hand-off, on sums.
	dispatchSelf := execSum - belowSum
	setSelf := func(name string, totalMS float64) {
		r.set(name, per(totalMS))
		if totalMS < 0 {
			r.violate("trace: %s = %v ms: a layer's spans exceed the span around them", name, per(totalMS))
		}
	}
	setSelf("ingress.self_ms", ingressSelf)
	setSelf("frontdoor.self_ms", handlerSelf+dispatchSelf)
	if st.coord != nil {
		setSelf("cluster.route_self_ms", sum[layerBackend]-sum[layerRPC])
		setSelf("rpcsched.wire_ms", sum[layerRPC]-sum[layerNode])
		r.set("node.exec_ms", per(sum[layerNode]))
		cs := st.coord.Status()
		var completed []float64
		for _, n := range cs.Nodes {
			completed = append(completed, float64(n.Completed))
		}
		_, most := minMax(completed)
		r.set("cluster.node_imbalance", ratio(most, mean(completed)))
		r.set("cluster.redispatched", float64(cs.Redispatched))
		r.set("cluster.lost", float64(cs.Routed-cs.Completed-cs.Failed))
	} else {
		r.notCrossed("cluster.", "rpcsched.", "node.")
	}
	fmt.Printf("frontdoor.self_ms = handler %.4f + dispatch %.4f ms per request\n", per(handlerSelf), per(dispatchSelf))
	r.set("client.rtt_mean_ms", per(clientSum))
	r.set("frontdoor.queue_wait_mean_ms", per(waitSum))
	// The engine span per run it timed, whichever side of the wire it is
	// on. (The budget takes it per request, which is the same thing only
	// while every request is admitted.)
	r.set("engine.run_ms", ratio(sum[layerEngine], float64(count[layerEngine])))

	r.set("frontdoor.queue_wait_p50_ms", percentile(waitMS, 0.5))
	r.set("frontdoor.queue_wait_p99_ms", percentile(waitMS, 0.99))
	r.set("frontdoor.admitted_frac", ratio(float64(admitted), requests))
	r.set("frontdoor.shed_frac", ratio(float64(shed), requests))
	r.set("frontdoor.rejected_frac", ratio(float64(rejected), requests))
	r.set("frontdoor.wasted_admit_frac", ratio(float64(wasted), float64(admitted)))
	r.set("costmodel.dur_pred_ratio_p50", percentile(predRatio, 0.5))

	ps := st.rec.Stats()
	r.set("provenance.recorded", float64(ps.Recorded))
	r.set("provenance.joined_frac", ratio(float64(ps.Joined), float64(ps.Recorded)))

	runs := count[layerEngine]
	r.setSched(spans, runs, sum[layerEngine], ph.elapsed.Seconds(), st.installedAgents())
	r.setEngineCounters(before, readEngineCounters(st.engineRegs...), runs)

	var lateness []float64
	valid, maxRate := 0, 0.0
	for _, step := range ph.steps {
		lateness = append(lateness, step.latenessMS...)
		if !step.valid() {
			continue
		}
		valid++
		if sloMetFrac(step.samples, variants, true) >= sloTarget && step.queuedEnd <= step.queuedMid && step.rate > maxRate {
			maxRate = step.rate
		}
	}
	r.set("loadgen.lateness_p99_ms", percentile(lateness, 0.99))
	r.set("loadgen.valid_steps", float64(valid))
	r.set("loadgen.max_rate_slo_qps", maxRate)
}

// setDirectTimings times the two pure functions on the request path
// that no wrapper can isolate, directly on the workload's own inputs.
func (r *report) setDirectTimings(st *stack, tf traffic, sz sizing) {
	start := time.Now()
	for i := 0; i < sz.decodeReps; i++ {
		if _, err := frontdoor.DecodeRequest(tf.variants[i%len(tf.variants)].body); err != nil {
			r.violate("decode generated request: %v", err)
			return
		}
	}
	r.set("frontdoor.decode_us", float64(time.Since(start).Microseconds())/float64(sz.decodeReps))

	est := st.fd.Estimator()
	start = time.Now()
	for i := 0; i < sz.predictReps; i++ {
		est.PredictTotals(tf.variants[i%len(tf.variants)].ops)
	}
	r.set("costmodel.predict_totals_us", float64(time.Since(start).Nanoseconds())/1e3/float64(sz.predictReps))
}
