package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/serving"
	"repro/internal/storage"
	"repro/internal/workload"
)

// sizing holds every size a workload depends on. fullSizing is the
// 2-core sizing BENCHMARK.json records; toySizing lets the unit test
// cross every layer in about a second per workload.
type sizing struct {
	heavy, light            stackSpec     // catalog sizes of the SSB stacks; each workload fills in the rest
	setupEpisodes           int           // episodes of the fixed small serving policy
	setups                  int           // set-ups per run; setup_s is their median
	rates                   [3]float64    // open-loop steps lo, mid, hi in requests/s
	openDeadline            time.Duration // the open loop's latency-class deadline
	offlineEpisodesPerSec   float64       // training episodes per second of --seconds
	batchQueries            int           // concurrent queries in one live batch (55: every held-out plan once)
	batchRows, batchBlocks  int
	golden                  bool // gate sink row counts against testdata/golden_rows.json too
	mismatchReps            int  // runs per plan behind engine.rows_mismatch_frac
	concurrentReps          int  // runs per plan and client behind engine.concurrent_fail_frac
	decodeReps, predictReps int  // direct timing loops of the traced run
	// mismatchMax is the ceiling of engine.rows_mismatch_frac: the
	// recorded baseline of known behaviour 3 (README.md; 0 of 65 runs on
	// the SSB stacks, at most 2 of 330 batch queries on TPC-H) plus
	// room for what identical code may show. A run above it is incorrect.
	mismatchMax float64
}

// goldenName is the key of a catalog's reference rows, or "" when this
// sizing has none checked in.
func (sz sizing) goldenName(name string) string {
	if !sz.golden {
		return ""
	}
	return name
}

var fullSizing = sizing{
	heavy:         stackSpec{sf: 10, rowsPerBlock: 16384, maxBlocks: 64},
	light:         stackSpec{sf: 0.1, rowsPerBlock: 2048, maxBlocks: 8},
	setupEpisodes: 24, setups: 3,
	rates:                 [3]float64{220, 440, 660},
	openDeadline:          25 * time.Millisecond,
	offlineEpisodesPerSec: 6,
	batchQueries:          55, batchRows: 4096, batchBlocks: 32,
	golden: true, mismatchReps: 5, concurrentReps: 4, decodeReps: 2000, predictReps: 20000,
	mismatchMax: 0.05,
}

var toySizing = sizing{
	heavy:         stackSpec{sf: 0.1, rowsPerBlock: 2048, maxBlocks: 8},
	light:         stackSpec{sf: 0.1, rowsPerBlock: 512, maxBlocks: 4},
	setupEpisodes: 2, setups: 1,
	rates: [3]float64{50, 100, 150},
	// Generous, so that the unit test's SLO shares do not read 0 on a slow
	// host or under the race detector.
	openDeadline:          time.Second,
	offlineEpisodesPerSec: 2,
	batchQueries:          8, batchRows: 512, batchBlocks: 4,
	// concurrentReps 0: the probe exercises a data race in the repository
	// (README.md, known behaviour 2), which the unit test must not.
	mismatchReps: 1, concurrentReps: 0, decodeReps: 50, predictReps: 50,
	mismatchMax: 1,
}

// queriesPerAgent is how many queries one serving agent schedules at a
// time. The CLIs default to 8 and ISSUE 12 asked for 2*GOMAXPROCS, but
// concurrent Live.RunOne calls behind one EngineBackend and one
// lsched.Agent fail with "scheduler stalled": 6% of the open loop's
// requests with four executor slots (README.md, known behaviour 2: the
// agent returns its reused decision buffer, and the engine reads it
// after lockedScheduler has let the next run's OnEvent in). A benchmark
// needs workloads on which nothing fails, so each agent serves one query
// at a time, and the traced run measures the defect as
// engine.concurrent_fail_frac. The concurrency the workloads do have:
// the open loop's submissions (up to a thousand queued across the front
// door's shards, drained with steals), two nodes' queries at once
// through front door and coordinator, engine threads within a query,
// and 55 queries under one scheduler in the live batch.
const queriesPerAgent = 1

// Serving traffic. Closed loops carry a generous deadline so nothing is
// shed; the open loop carries sizing.openDeadline, which its SLO metrics
// are defined on.
const (
	closedLoopDeadline = time.Second
	latencyClassShare  = 0.7
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizing
}

func (c runConfig) duration(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// warmup is how long a serving stack is driven before timing starts:
// a quarter of the run, at least a second.
func (c runConfig) warmup() time.Duration {
	if w := c.duration(0.25); w > time.Second {
		return w
	}
	return time.Second
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a run prints last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	violations []string
}

// report collects a run's numbers under the names of spec.go.
type report struct {
	values     map[string]float64
	attempted  int
	failed     int
	violations []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// specNames holds every metric name of spec.go.
var specNames = func() map[string]bool {
	names := make(map[string]bool, len(endToEnd)+len(perLayer))
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range table {
			names[m.name] = true
		}
	}
	return names
}()

// set records a metric. A name spec.go does not have is a bug in the
// workload, reported as a violation so it cannot pass silently.
func (r *report) set(name string, v float64) {
	if !specNames[name] {
		r.violate("metric %s is not in spec.go", name)
		return
	}
	r.values[name] = v
}

// notCrossed sets to 0 every per-layer metric whose name starts with one
// of the prefixes: the layers this workload does not cross.
func (r *report) notCrossed(prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				r.values[m.name] = 0
			}
		}
	}
}

// violate records a broken invariant: it counts as a failed operation
// and makes the run incorrect.
func (r *report) violate(format string, args ...any) {
	r.failed++
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// result selects the metric table the run was asked for. A name of that
// table the workload neither measured nor declared notCrossed is a bug
// in the workload, reported as a violation.
func (r *report) result(trace bool) *runResult {
	table := endToEnd
	if trace {
		table = perLayer
	}
	out := &runResult{Metrics: make(map[string]metricValue, len(table))}
	for _, m := range table {
		v, ok := r.values[m.name]
		if !ok {
			r.violate("metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	out.Attempted, out.Failed, out.violations = r.attempted, r.failed, r.violations
	out.Correct = r.failed == 0
	return out
}

// procStats snapshots the process counters the proc.* metrics are
// deltas of.
type procStats struct {
	wall    time.Time
	cpu     float64
	mallocs uint64
	gcPause uint64
}

func readProcStats() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procStats{wall: time.Now(), cpu: cpuSeconds(), mallocs: m.Mallocs, gcPause: m.PauseTotalNs}
}

func (r *report) setProc(before procStats, queries int) {
	after := readProcStats()
	wall := after.wall.Sub(before.wall).Seconds()
	r.set("proc.cpu_util", ratio(after.cpu-before.cpu, wall*float64(runtime.GOMAXPROCS(0))))
	r.set("proc.allocs_per_query", ratio(float64(after.mallocs-before.mallocs), float64(queries)))
	r.set("proc.gc_pause_ms", float64(after.gcPause-before.gcPause)/1e6)
}

// setTraining reports one training run; episodesPerS is the caller's
// (possibly median-of-set-ups) rate.
func (r *report) setTraining(st trainStats, episodesPerS float64) {
	r.set("train_episodes_per_s", episodesPerS)
	r.set("lsched.train_episode_ms", ratio(st.seconds*1e3, float64(st.episodes)))
	r.set("lsched.train_allocs_per_episode", ratio(float64(st.allocs), float64(st.episodes)))
}

// setSched derives the lsched.* inference metrics from the OnEvent
// spans of a traced phase: queries scheduler runs of engineMS total
// over wall seconds on agents separately serialised agents.
func (r *report) setSched(spans []span, queries int, engineMS, wall float64, agents []*lsched.Agent) {
	var decisionUS []float64
	var schedMS float64
	for _, s := range spans {
		if s.layer == layerSched {
			d := float64(s.end - s.start)
			decisionUS = append(decisionUS, d/1e3)
			schedMS += d / 1e6
		}
	}
	r.set("lsched.decision_us_p50", percentile(decisionUS, 0.5))
	r.set("lsched.decision_us_p99", percentile(decisionUS, 0.99))
	r.set("lsched.decisions_per_query", ratio(float64(len(decisionUS)), float64(queries)))
	r.set("lsched.overhead_frac", ratio(schedMS, engineMS))
	r.set("lsched.busy_frac", ratio(schedMS/1e3, wall*float64(len(agents))))
	r.set("engine.exec_self_ms", ratio(engineMS-schedMS, float64(queries)))
	var hits, misses uint64
	for _, a := range agents {
		h, m := a.EncodingCacheStats()
		hits, misses = hits+h, misses+m
	}
	r.set("encoder.cache_hit_frac", ratio(float64(hits), float64(hits+misses)))
}

// engineCounters sums the live engines' registry counters the engine.*
// and exec.* metrics are deltas of.
type engineCounters struct{ workOrders, splits, poolHits, poolMisses float64 }

func readEngineCounters(regs ...*metrics.Registry) engineCounters {
	var c engineCounters
	for _, reg := range regs {
		c.workOrders += float64(reg.Counter("live_workorders_executed").Value())
		c.splits += float64(reg.Counter("live_morsel_splits").Value())
		c.poolHits += float64(reg.Counter("live_block_pool_hits").Value())
		c.poolMisses += float64(reg.Counter("live_block_pool_misses").Value())
	}
	return c
}

func (r *report) setEngineCounters(before, after engineCounters, queries int) {
	r.set("engine.workorders_per_query", ratio(after.workOrders-before.workOrders, float64(queries)))
	r.set("engine.morsel_splits_per_query", ratio(after.splits-before.splits, float64(queries)))
	hits, misses := after.poolHits-before.poolHits, after.poolMisses-before.poolMisses
	r.set("exec.pool_hit_frac", ratio(hits, hits+misses))
}

// servingPhase is one timed stretch of a serving workload.
type servingPhase struct {
	t0, t1  int64 // the phase's nominal span on the run clock
	elapsed time.Duration
	samples []sample     // every request of the phase
	steps   []stepResult // open loop only, in order lo, mid, hi
	// rssMB is the peak resident set before the open loop's hi step. Past
	// the knee, memory is whatever backlog the queue caps allow, which
	// swings with the host's speed; the peak at sustainable load is the
	// steadier number a memory regression shows in.
	rssMB float64
}

// driver offers a serving workload's timed traffic for d.
type driver func(g *loadgen, d time.Duration, rng *rand.Rand) servingPhase

func driveClosed(g *loadgen, d time.Duration, _ *rand.Rand) servingPhase {
	t0 := g.now()
	samples := g.closedLoop(d, &g.traffic)
	return servingPhase{t0: t0, t1: t0 + int64(d), elapsed: time.Duration(g.now() - t0), samples: samples}
}

func driveOpen(rates [3]float64) driver {
	return func(g *loadgen, d time.Duration, rng *rand.Rand) servingPhase {
		var ph servingPhase
		for i, rate := range rates {
			if i == len(rates)-1 {
				ph.rssMB = rssPeakMB()
			}
			step := g.openStep(rate, d/3, rng)
			fmt.Printf("step rate=%g/s offered=%d lateness_p50=%.3fms lateness_p90=%.3fms lateness_p99=%.3fms queued_mid=%d queued_end=%d\n",
				rate, len(step.samples), percentile(step.latenessMS, 0.5), percentile(step.latenessMS, 0.9), percentile(step.latenessMS, 0.99), step.queuedMid, step.queuedEnd)
			ph.steps = append(ph.steps, step)
			ph.samples = append(ph.samples, step.samples...)
			ph.elapsed += step.elapsed
		}
		return ph
	}
}

// warm drives the stack before timing. The first half is deadline-free
// throughput-class traffic: a cold frontdoor.Learned prices every query
// at the estimator's 10 ms-per-unit prior, so under a 25 ms deadline it
// sheds everything, and shed queries never train it (README.md, known
// behaviours). The second half is the workload's own mix.
func warm(g *loadgen, plans []*plan.Plan, ts trafficSpec, seed int64, d time.Duration) error {
	ts.latencyFrac = 0
	free, err := genTraffic(plans, ts, seed)
	if err != nil {
		return err
	}
	g.closedLoop(d/2, &free)
	g.closedLoop(d/2, &g.traffic)
	return nil
}

// runServing is the common body of the three serving workloads.
func runServing(cfg runConfig, spec stackSpec, ts trafficSpec, golden string, drive driver) (*runResult, error) {
	procs := runtime.GOMAXPROCS(0)
	spec.episodes = cfg.sz.setupEpisodes
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up, several times over (once on a traced run, which does not
	// report it); the last stack is the one driven.
	setups := cfg.sz.setups
	if cfg.trace {
		setups = 1
	}
	var st *stack
	var setupS, episodesPerS []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			// Drop the discarded stack before building the next, so
			// rss_peak_mb does not depend on when the collector got to it.
			st.close()
			st = nil
			runtime.GC()
		}
		var err error
		if st, err = buildStack(spec, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, st.cost.total.Seconds())
		episodesPerS = append(episodesPerS, st.cost.train.episodesPerS())
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	rep.set("setup_s", median(setupS))
	rep.setTraining(st.cost.train, median(episodesPerS))
	rep.set("policystore.put_ms", ms(st.cost.put))
	rep.set("serving.install_ms", ms(st.cost.install))

	// Correctness gate and the simulator score of the served policy, on
	// a policy instance of their own loaded from the same checkpoint.
	ck, err := st.store.Get(st.version)
	if err != nil {
		return nil, err
	}
	policy, err := serving.LSchedLoader(lsched.DefaultOptions(policySeed))(ck)
	if err != nil {
		return nil, err
	}
	want, err := referenceRows(st.catalog, st.plans)
	if err != nil {
		return nil, err
	}
	violations, err := gateRows(cfg.sz.goldenName(golden), st.catalog, st.plans, policy, want)
	if err != nil {
		return nil, err
	}
	rep.attempted += 2 * len(st.plans)
	for _, v := range violations {
		rep.violate("%s", v)
	}
	// The same plans at the thread count the run is timed at, where row
	// counts depend on completion order (README.md, known behaviour 3):
	// held to the recorded ceiling.
	mismatch, err := rowsMismatchFrac(st.catalog, st.plans, policy, spec.engineThreads, cfg.sz.mismatchReps, want)
	if err != nil {
		return nil, err
	}
	fmt.Printf("gate: %.4f of %d runs on %d threads differ from the one-thread row counts\n", mismatch, cfg.sz.mismatchReps*len(st.plans), spec.engineThreads)
	rep.set("engine.rows_mismatch_frac", mismatch)
	rep.attempted += cfg.sz.mismatchReps * len(st.plans)
	if mismatch > cfg.sz.mismatchMax {
		rep.violate("engine.rows_mismatch_frac %.3f is above its ceiling %.3f", mismatch, cfg.sz.mismatchMax)
	}
	simRatio, err := simDurationRatio(policy, st.plans)
	if err != nil {
		return nil, err
	}
	rep.set("sim_avg_duration_ratio", simRatio)

	tf, err := genTraffic(st.plans, ts, cfg.seed)
	if err != nil {
		return nil, err
	}
	// measure warms the stack, calls warmed (if any) and drives the
	// timed phase.
	measure := func(st *stack, d time.Duration, tr *tracer, warmed func()) (servingPhase, *loadgen, error) {
		g := newLoadgen(st, tf, procs, tr)
		if err := warm(g, st.plans, ts, cfg.seed+1, cfg.warmup()); err != nil {
			return servingPhase{}, nil, err
		}
		if warmed != nil {
			warmed()
		}
		ph := drive(g, d, rng)
		g.close()
		return ph, g, nil
	}

	if !cfg.trace {
		ph, g, err := measure(st, cfg.duration(1), nil, nil)
		if err != nil {
			return nil, err
		}
		rep.checkServing(st, g)
		rep.setEndToEnd(ph, tf.variants)
		if ph.rssMB == 0 {
			ph.rssMB = rssPeakMB()
		}
		rep.set("rss_peak_mb", ph.rssMB)
		return rep.result(false), nil
	}

	// Traced run: half the time untraced for the reference throughput,
	// then a second stack with the wrappers interposed.
	ref, g, err := measure(st, cfg.duration(0.5), nil, nil)
	if err != nil {
		return nil, err
	}
	rep.checkServing(st, g)
	rep.set("engine.concurrent_fail_frac", concurrentFailFrac(st.catalog, st.plans, policy, spec.engineThreads, 2*procs, cfg.sz.concurrentReps))
	st.close()
	st = nil

	tr := newTracer(1 << 21)
	if st, err = buildStack(spec, tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	var countersBefore engineCounters
	var stealsBefore int64
	var procBefore procStats
	ph, g, err := measure(st, cfg.duration(0.5), tr, func() {
		countersBefore = readEngineCounters(st.engineRegs...)
		stealsBefore = st.fdReg.Counter(frontdoor.MetricSteals).Value()
		procBefore = readProcStats()
		tr.on.Store(true)
	})
	if err != nil {
		return nil, err
	}
	rep.checkServing(st, g)
	spans := tr.done()
	if n := tr.dropped.Load(); n > 0 {
		rep.violate("trace buffer overflowed: %d spans dropped", n)
	}
	rep.setProc(procBefore, len(ph.samples))
	rep.set("frontdoor.steals", float64(st.fdReg.Counter(frontdoor.MetricSteals).Value()-stealsBefore))
	rep.setLayers(st, ph, tf.variants, spans, countersBefore)
	rep.set("trace.overhead_frac", 1-ratio(goodput(ph), goodput(ref)))
	rep.setDirectTimings(st, tf, cfg.sz)
	if err := writeTrace(cfg.workload, spans); err != nil {
		return nil, err
	}
	return rep.result(true), nil
}

// goodput is admitted-and-correct replies per second of a phase.
func goodput(ph servingPhase) float64 {
	n := 0
	for _, s := range ph.samples {
		if s.outcome == outAdmitted {
			n++
		}
	}
	return ratio(float64(n), ph.elapsed.Seconds())
}

// checkServing verifies the invariants a finished serving run must
// satisfy: client tallies equal the front door's, front-door
// conservation, cluster conservation, one provenance join per decision.
func (r *report) checkServing(st *stack, g *loadgen) {
	sent := int(g.seq.Load())
	r.attempted += sent
	var tally [4]int64
	for i := range tally {
		tally[i] = g.tally[i].Load()
	}
	r.failed += int(tally[outFailed])
	if tally[outFailed] > 0 {
		r.violations = append(r.violations, fmt.Sprintf("%d of %d requests failed (transport error, backend error or invalid reply), first: %v", tally[outFailed], sent, g.failures))
	}
	fs := st.fd.Stats()
	if fs.Admitted+fs.Shed+fs.Rejected != fs.Submitted || fs.Queued != 0 || fs.InFlight != 0 {
		r.violate("front door conservation: %+v", fs)
	}
	if fs.Submitted != int64(sent) || fs.Admitted != g.admitted.Load() || fs.Shed != tally[outShed] || fs.Rejected != tally[outRejected] {
		r.violate("client tallies differ from fd.Stats(): sent=%d admitted=%d shed=%d rejected=%d vs %+v",
			sent, g.admitted.Load(), tally[outShed], tally[outRejected], fs)
	}
	if st.coord != nil {
		cs := st.coord.Status()
		if lost := cs.Routed - cs.Completed - cs.Failed; lost != 0 || cs.Failed != 0 {
			r.violate("cluster conservation: routed=%d completed=%d failed=%d", cs.Routed, cs.Completed, cs.Failed)
		}
	}
	if ps := st.rec.Stats(); ps.Joined != ps.Recorded || ps.OpenKeys != 0 {
		r.violate("provenance: recorded=%d joined=%d open=%d", ps.Recorded, ps.Joined, ps.OpenKeys)
	}
}

// metSLO reports whether the request was admitted, answered correctly
// and answered within its deadline, counted from its start (the due
// time in an open loop). Requests without a deadline meet it by being
// answered.
func metSLO(s sample, v *variant) bool {
	if s.outcome != outAdmitted {
		return false
	}
	return v.deadline == 0 || time.Duration(s.end-s.start) <= v.deadline
}

// sloMetFrac is the share of offered requests (of the latency class
// only, if asked) that met their SLO; shed, rejected, late and failed
// requests all miss.
func sloMetFrac(samples []sample, variants []variant, latencyClassOnly bool) float64 {
	var met, offered int
	for _, s := range samples {
		v := &variants[s.variant]
		if latencyClassOnly && v.class != frontdoor.ClassLatency {
			continue
		}
		offered++
		if metSLO(s, v) {
			met++
		}
	}
	return ratio(float64(met), float64(offered))
}

// windows cuts [t0,t1) into n equal windows and returns the admitted
// samples that completed in each.
func windows(samples []sample, t0, t1 int64, n int) [][]sample {
	ws := make([][]sample, n)
	width := (t1 - t0) / int64(n)
	for _, s := range samples {
		if i := (s.end - t0) / width; s.outcome == outAdmitted && s.end >= t0 && i < int64(n) {
			ws[i] = append(ws[i], s)
		}
	}
	return ws
}

// medianOver is the median over windows of f(window). The recording
// host slows by 10-20% for seconds at a time; a median over windows
// reports the typical second instead of averaging those stretches in.
func medianOver(ws [][]sample, f func([]sample) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

func latencyPercentile(p float64) func([]sample) float64 {
	return func(w []sample) float64 {
		lat := make([]float64, len(w))
		for i, s := range w {
			lat[i] = s.latencyMS()
		}
		return percentile(lat, p)
	}
}

// Windows per timed span: 2 s on a closed loop at the recorded run
// length, 1.3 s on the open loop's lo step. The guest loses its
// processors for 100-400 ms every other run or so; over the whole lo
// step that alone moved the p99 between 6 and 105 ms from seed to seed,
// while the median over windows drops the window it hit. A window holds
// about 290 samples on serve_heavy and on the lo step (2000 on
// cluster_light), so the p95 is the highest percentile with ten samples
// beyond it; the sample count is printed beside the percentiles.
const (
	closedLoopWindows = 10
	openStepWindows   = 5
)

// setEndToEnd derives the user-visible metrics of an untraced phase.
func (r *report) setEndToEnd(ph servingPhase, variants []variant) {
	var ws [][]sample
	if len(ph.steps) == 0 {
		ws = windows(ph.samples, ph.t0, ph.t1, closedLoopWindows)
		width := float64(ph.t1-ph.t0) / closedLoopWindows / 1e9
		r.set("throughput_qps", medianOver(ws, func(w []sample) float64 { return float64(len(w)) / width }))
		// One offered load: all three names read the share of all
		// requests answered within their deadline.
		share := sloMetFrac(ph.samples, variants, false)
		for _, name := range sloNames {
			r.set(name, share)
		}
	} else {
		// The offered rate fixes most of the goodput; the hi step adds
		// what the stack sustains past its knee.
		r.set("throughput_qps", goodput(ph))
		for i, name := range sloNames {
			step := ph.steps[i]
			r.set(name, sloMetFrac(step.samples, variants, true))
			if !step.valid() {
				r.violate("open loop: the generator launched the p90 request of step %g/s %.1f ms late, limit %g ms", step.rate, percentile(step.latenessMS, 0.9), maxLatenessMS)
			}
		}
		lo := ph.steps[0]
		ws = windows(lo.samples, lo.t0, lo.t0+int64(lo.elapsed), openStepWindows)
	}
	r.set("latency_p50_ms", medianOver(ws, latencyPercentile(0.5)))
	r.set("latency_p95_ms", medianOver(ws, latencyPercentile(0.95)))
	fmt.Printf("latency percentiles are medians over %d windows of about %.0f samples\n",
		len(ws), medianOver(ws, func(w []sample) float64 { return float64(len(w)) }))
}

// The workloads.

func runServeHeavy(cfg runConfig) (*runResult, error) {
	procs := runtime.GOMAXPROCS(0)
	spec := cfg.sz.heavy
	spec.engineThreads, spec.maxInFlight = procs, queriesPerAgent
	ts := trafficSpec{tenants: 1, latencyFrac: latencyClassShare, deadline: closedLoopDeadline}
	return runServing(cfg, spec, ts, "ssb_heavy", driveClosed)
}

func runServeLightOpen(cfg runConfig) (*runResult, error) {
	procs := runtime.GOMAXPROCS(0)
	spec := cfg.sz.light
	spec.engineThreads, spec.maxInFlight = procs, queriesPerAgent
	ts := trafficSpec{tenants: 4, latencyFrac: latencyClassShare, deadline: cfg.sz.openDeadline}
	return runServing(cfg, spec, ts, "ssb_light", driveOpen(cfg.sz.rates))
}

func runClusterLight(cfg runConfig) (*runResult, error) {
	spec := cfg.sz.light
	spec.nodes, spec.engineThreads = 2, 1
	// Each node has an agent of its own, so the front door keeps the
	// issue's slot count; the coordinator holds what exceeds one query
	// per node in its per-node queues.
	spec.maxInFlight, spec.maxPerNode = 2*runtime.GOMAXPROCS(0), queriesPerAgent
	ts := trafficSpec{tenants: 4, latencyFrac: latencyClassShare, deadline: closedLoopDeadline}
	return runServing(cfg, spec, ts, "ssb_light", driveClosed)
}

// offlineSetup is offline_train_batch's set-up: the TPC-H train/test
// pool, the held-out plans' catalog, the live engine over it, and the
// reference row counts the gate compares the trained policy against
// (one run of every held-out plan on one thread, which is most of it).
type offlineSetup struct {
	pool    *workload.Pool
	catalog *storage.Catalog
	reg     *metrics.Registry
	live    *engine.Live
	want    []int
}

func buildOffline(sz sizing, threads int) (*offlineSetup, error) {
	pool, err := workload.NewPool(workload.BenchTPCH, policySeed)
	if err != nil {
		return nil, err
	}
	catalog, err := workload.SyntheticCatalog(pool.Test, sz.batchRows, sz.batchBlocks, catalogSeed)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	live := engine.NewLive(catalog, engine.LiveConfig{Threads: threads, Metrics: reg})
	if err := live.Validate(pool.Test); err != nil {
		return nil, err
	}
	want, err := referenceRows(catalog, pool.Test)
	if err != nil {
		return nil, err
	}
	return &offlineSetup{pool: pool, catalog: catalog, reg: reg, live: live, want: want}, nil
}

// batchArrivals draws the live batch: every held-out plan equally often
// (as far as n allows), in an order --seed picks, all arriving at once.
// It also returns each arrival's plan index; the engine numbers queries
// in arrival order, so that is also the index by query ID.
func batchArrivals(plans []*plan.Plan, n int, rng *rand.Rand) ([]engine.Arrival, []int) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i % len(plans)
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	arrivals := make([]engine.Arrival, n)
	for i, p := range idx {
		arrivals[i] = engine.Arrival{Plan: plans[p].Clone()}
	}
	return arrivals, idx
}

// runOfflineTrainBatch is the paper's own loop: (a) REINFORCE training
// on streaming TPC-H episodes in the simulator, (b) greedy evaluation
// against Quickstep on the held-out plans in virtual time, (c) a batch
// of concurrent queries on the live engine under the trained policy.
func runOfflineTrainBatch(cfg runConfig) (*runResult, error) {
	procs := runtime.GOMAXPROCS(0)
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	start := time.Now()

	var off *offlineSetup
	var setupS []float64
	for i := 0; i < cfg.sz.setups; i++ {
		off = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if off, err = buildOffline(cfg.sz, procs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setupS))

	episodes := int(cfg.sz.offlineEpisodesPerSec * cfg.seconds)
	if episodes < 2 {
		episodes = 2
	}
	agent, train, err := trainPolicy(off.pool.Train, episodes, 2)
	if err != nil {
		return nil, err
	}
	rep.setTraining(train, train.episodesPerS())
	rep.attempted += episodes

	simRatio, err := simDurationRatio(agent, off.pool.Test)
	if err != nil {
		return nil, err
	}
	rep.set("sim_avg_duration_ratio", simRatio)

	violations, err := gateRows(cfg.sz.goldenName("tpch_offline"), off.catalog, off.pool.Test, agent, off.want)
	if err != nil {
		return nil, err
	}
	rep.attempted += 2 * len(off.pool.Test)
	for _, v := range violations {
		rep.violate("%s", v)
	}

	// Live batches until --seconds is used up, at least two; on a traced
	// run the second and later ones carry the scheduler wrapper.
	var tr *tracer
	if cfg.trace {
		tr = newTracer(1 << 21)
		tr.on.Store(true)
	}
	var wallS, tracedWallS, durationsMS []float64
	var procBefore procStats
	var countersBefore engineCounters
	queries, completed, mismatched := 0, 0, 0
	for b := 0; b < 2 || time.Since(start).Seconds()+mean(wallS) < cfg.seconds; b++ {
		var sched engine.Scheduler = agent
		traced := tr != nil && b > 0
		if traced {
			sched = tracedScheduler{t: tr, inner: agent}
			if len(tracedWallS) == 0 {
				procBefore = readProcStats()
				countersBefore = readEngineCounters(off.reg)
			}
		}
		arrivals, planOf := batchArrivals(off.pool.Test, cfg.sz.batchQueries, rng)
		t0 := time.Now()
		res, err := off.live.Run(sched, arrivals)
		if err != nil {
			return nil, fmt.Errorf("live batch: %w", err)
		}
		wall := time.Since(t0).Seconds()
		rep.attempted += len(arrivals)
		if len(res.Durations) != len(arrivals) {
			rep.violate("live batch completed %d of %d queries", len(res.Durations), len(arrivals))
		}
		for id := range res.Durations {
			completed++
			if res.OutputRows[id] != off.want[planOf[id]] {
				mismatched++
			}
		}
		if traced {
			tracedWallS = append(tracedWallS, wall)
			queries += len(arrivals)
		} else {
			wallS = append(wallS, wall)
		}
		// The engine reports durations on its own clock, which counts
		// work-order time only; stretch them to the batch's wall time so
		// they include the scheduling that a waiting user also pays for.
		for _, d := range res.Durations {
			durationsMS = append(durationsMS, d*1e3*ratio(wall, res.Makespan))
		}
	}
	fmt.Printf("live batches: %d untraced %.3v s, %d traced %.3v s\n", len(wallS), wallS, len(tracedWallS), tracedWallS)
	n := float64(cfg.sz.batchQueries)
	rep.set("throughput_qps", ratio(n, median(wallS)))
	// What the submitter of a batch waits for, and the tail query over
	// all batches (about 440 of them). (The median query duration sits in a gap between
	// clusters of similar plans and flips between them from seed to seed.)
	rep.set("latency_p50_ms", median(wallS)*1e3)
	rep.set("latency_p95_ms", percentile(durationsMS, 0.95))
	// No request carries a deadline: a query meets its SLO by completing.
	for _, name := range sloNames {
		rep.set(name, 1-ratio(float64(rep.failed), float64(rep.attempted)))
	}
	rep.set("rss_peak_mb", rssPeakMB())
	// The timed batches' own sink row counts against the one-thread
	// reference: known behaviour 3, held to its recorded ceiling.
	mismatch := ratio(float64(mismatched), float64(completed))
	fmt.Printf("live batches: %d of %d queries differ from the one-thread row counts\n", mismatched, completed)
	rep.set("engine.rows_mismatch_frac", mismatch)
	if mismatch > cfg.sz.mismatchMax {
		rep.violate("engine.rows_mismatch_frac %.3f is above its ceiling %.3f", mismatch, cfg.sz.mismatchMax)
	}
	if !cfg.trace {
		return rep.result(false), nil
	}

	spans := tr.done()
	if dropped := tr.dropped.Load(); dropped > 0 {
		rep.violate("trace buffer overflowed: %d spans dropped", dropped)
	}
	var tracedS float64
	for _, w := range tracedWallS {
		tracedS += w
	}
	rep.setProc(procBefore, queries)
	rep.setEngineCounters(countersBefore, readEngineCounters(off.reg), queries)
	rep.set("engine.run_ms", ratio(tracedS*1e3, float64(queries)))
	rep.setSched(spans, queries, tracedS*1e3, tracedS, []*lsched.Agent{agent})
	rep.set("trace.overhead_frac", 1-ratio(median(wallS), median(tracedWallS)))
	// No request path, no policy store, no front door.
	rep.notCrossed("client.", "trace.nested_frac", "ingress.", "frontdoor.", "costmodel.", "cluster.", "rpcsched.", "node.",
		"policystore.", "serving.", "provenance.", "loadgen.", "engine.concurrent_fail_frac")
	if err := writeTrace(cfg.workload, spans); err != nil {
		return nil, err
	}
	return rep.result(true), nil
}
