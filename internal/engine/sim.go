package engine

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// Arrival pairs a query plan with its arrival time.
type Arrival struct {
	Plan *plan.Plan
	At   float64
}

// CloneArrivals deep-copies an arrival list (plans included) so separate
// runs — repeated evaluations, or parallel training rollouts on their
// own Sims — never share plan structure.
func CloneArrivals(in []Arrival) []Arrival {
	out := make([]Arrival, len(in))
	for i, a := range in {
		out[i] = Arrival{Plan: a.Plan.Clone(), At: a.At}
	}
	return out
}

// SimConfig configures one simulator run.
type SimConfig struct {
	// Threads is the initial worker pool size.
	Threads int
	// Cost is the work-order cost model; nil selects DefaultCostModel.
	Cost *CostModel
	// NoiseFrac is the +-fraction of uniform noise on work-order
	// durations (data-dependent variance the optimizer cannot see).
	NoiseFrac float64
	// Seed drives the duration noise deterministically.
	Seed int64
	// MeasureOverhead records wall-clock time spent inside the scheduler,
	// for the Fig. 13 overhead experiment.
	MeasureOverhead bool
	// MaxTime aborts the run if the virtual clock passes it (0 = off);
	// a safety net against schedulers that deadlock the queue.
	MaxTime float64
	// ThreadChanges grows or shrinks the worker pool at the given
	// times, firing the §5.2 thread-added/-removed scheduling events.
	ThreadChanges []ThreadChange
	// Metrics, when non-nil, receives counters, gauges, and latency
	// histograms for the run. Nil disables metrics at zero cost.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives typed events (work-order dispatch/
	// completion, query admit/finish, scheduler decisions, trigger
	// firings, cost-model updates). Nil disables tracing at zero cost.
	Trace *metrics.Tracer
}

// ThreadChange adjusts the pool size mid-run: Delta workers are added
// (positive) or retired (negative) at time At. Busy workers finish
// their current work order before retiring.
type ThreadChange struct {
	At    float64
	Delta int
}

// SimResult summarizes one simulator run.
type SimResult struct {
	// Durations maps query ID to (completion − arrival).
	Durations map[int]float64
	// Makespan is the virtual time when the last query completed.
	Makespan float64
	// SchedActions counts scheduler decisions that activated a root.
	SchedActions int
	// SchedInvocations counts OnEvent calls.
	SchedInvocations int
	// SchedOverhead is total wall-clock time inside OnEvent (when
	// measured).
	SchedOverhead time.Duration
	// EventTrace holds (time, #running queries) pairs at every decision,
	// from which trainers compute the paper's H_d reward terms.
	EventTrace []TracePoint
	// WorkOrders counts executed work orders.
	WorkOrders int
}

// TracePoint records the system load between consecutive scheduling
// decisions; the REINFORCE reward (§6) is built from these.
type TracePoint struct {
	Time    float64
	Queries int
}

// AvgDuration returns the mean query duration of the run.
func (r *SimResult) AvgDuration() float64 {
	if len(r.Durations) == 0 {
		return 0
	}
	s := 0.0
	for _, d := range r.Durations {
		s += d
	}
	return s / float64(len(r.Durations))
}

// simEvent is an entry in the discrete-event queue.
type simEvent struct {
	at   float64
	seq  int // tie-break for determinism
	kind EventKind
	// arrival payload
	arr *Arrival
	// completion payload
	stats CompletionStats
	// pool-change payload
	delta int
}

type eventHeap []*simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is the virtual-time discrete-event engine. One Sim runs one
// workload to completion under one scheduler.
type Sim struct {
	cfg      SimConfig
	cost     *CostModel
	rng      *rand.Rand
	state    *State
	events   eventHeap
	seq      int
	nextQID  int
	result   SimResult
	observer QueryObserver
	// runningWOs tracks in-flight work orders per query for grant
	// enforcement.
	runningWOs map[int]int
	// threadBusyUntil lets EvThreadFree fire correctly.
	arrived int
	total   int
	// pendingRetire counts workers awaiting retirement once their
	// current work order finishes (pool shrink with all workers busy).
	pendingRetire int
	// executeHook, when set, replaces the cost model: the live engine
	// executes the work order for real and returns its measured
	// (duration, memory). Scheduling semantics stay identical; only the
	// source of durations changes.
	executeHook func(q *QueryState, os *OpState, wo WorkOrder) (float64, float64)
	// afterDispatch, when set, runs after every dispatch round; the
	// invariant tests use it to verify work conservation at the only
	// point where it must hold.
	afterDispatch func()
	// batchBuf/dursBuf/memsBuf are reused across dispatch rounds so a
	// live run's event loop does not allocate per round on the steady
	// state (the live alloc-budget test pins this).
	batchBuf []dispatched
	dursBuf  []float64
	memsBuf  []float64
	// freeEvents recycles popped event structs: a run pushes one
	// completion per work order, but only ~threads+arrivals are ever in
	// flight, so the free list caps event allocations at the high-water
	// mark instead of one per completion.
	freeEvents []*simEvent
	// execJobs feeds the run's pool of executor goroutines (live runs
	// only): dispatch rounds send batch indices into the channel
	// instead of spawning a fresh goroutine per work order. execBatch/
	// dursBuf/memsBuf are published before the sends and read back
	// after execWG.Wait, so the channel and wait group carry all the
	// necessary happens-before edges.
	execJobs  chan int
	execBatch []dispatched
	execWG    sync.WaitGroup
	// chainBuf is reused across apply calls for appendPipelineChain results.
	chainBuf []int
	// instr holds the cached metric handles (all-nil when disabled).
	instr *simInstruments
	// schedMu, when set (live runs), is held from OnEvent until its last
	// decision is applied: the Scheduler contract.
	schedMu *sync.Mutex
}

// NewSim builds a simulator for the given config.
func NewSim(cfg SimConfig) *Sim {
	return newSim(cfg, newEstimator(cfg.Metrics), newSimInstruments(cfg.Metrics))
}

// newEstimator builds one run's instrumented O-DUR/O-MEM estimator
// (footnote 1's regression over the last 8 work orders per operator).
func newEstimator(reg *metrics.Registry) *costmodel.Estimator {
	est := costmodel.NewEstimator(8, 1, 1)
	est.Instrument(reg)
	return est
}

// newSim is NewSim over an estimator and instrument handles the caller
// already holds (the live engine reuses both across its runs). The
// estimator must not be shared across concurrent sims.
func newSim(cfg SimConfig, est *costmodel.Estimator, instr *simInstruments) *Sim {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	cost := cfg.Cost
	if cost == nil {
		cost = DefaultCostModel()
	}
	s := &Sim{
		cfg:  cfg,
		cost: cost,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		state: &State{
			Estimator: est,
		},
		result:     SimResult{Durations: make(map[int]float64)},
		runningWOs: make(map[int]int),
		instr:      instr,
	}
	s.state.Threads = make([]ThreadInfo, cfg.Threads)
	for i := range s.state.Threads {
		s.state.Threads[i] = ThreadInfo{ID: i, LastQuery: -1}
	}
	return s
}

// SetObserver attaches a query lifecycle observer (used by RL trainers).
func (s *Sim) SetObserver(o QueryObserver) { s.observer = o }

// Run executes the workload to completion under sched and returns the
// run summary. It is deterministic for a fixed seed and scheduler.
func (s *Sim) Run(sched Scheduler, arrivals []Arrival) (*SimResult, error) {
	s.total = len(arrivals)
	for _, a := range arrivals {
		if a.Plan == nil {
			return nil, fmt.Errorf("engine: nil plan in arrivals")
		}
		ev := s.newEvent()
		ev.at, ev.kind, ev.arr = a.At, EvQueryArrival, &a
		s.push(ev)
	}
	for _, tc := range s.cfg.ThreadChanges {
		kind := EvThreadAdded
		if tc.Delta < 0 {
			kind = EvThreadRemoved
		}
		if tc.Delta != 0 {
			ev := s.newEvent()
			ev.at, ev.kind, ev.delta = tc.At, kind, tc.Delta
			s.push(ev)
		}
	}
	if s.executeHook != nil && s.cfg.Threads > 1 {
		jobs := make(chan int, s.cfg.Threads)
		s.execJobs = jobs
		for i := 0; i < s.cfg.Threads; i++ {
			go s.execWorker(jobs)
		}
		defer func() {
			close(jobs)
			s.execJobs = nil
		}()
	}
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*simEvent)
		if s.cfg.MaxTime > 0 && ev.at > s.cfg.MaxTime {
			return nil, fmt.Errorf("engine: simulation exceeded MaxTime=%v at t=%v (scheduler %q stalled?)", s.cfg.MaxTime, ev.at, sched.Name())
		}
		s.state.Now = ev.at
		switch ev.kind {
		case EvQueryArrival:
			s.handleArrival(sched, ev)
		case EvOperatorDone: // carries a work-order completion
			s.handleCompletion(sched, ev)
		case EvThreadAdded, EvThreadRemoved:
			s.handlePoolChange(sched, ev)
		}
		// Handlers consume payloads by value (stats is copied, arr is a
		// pointer into the arrivals slice), so the struct can be reused.
		s.freeEvents = append(s.freeEvents, ev)
		if s.stalled() {
			return nil, fmt.Errorf("engine: scheduler %q stalled with %d unfinished queries at t=%v",
				sched.Name(), len(s.state.Queries), s.state.Now)
		}
	}
	s.result.Makespan = s.state.Now
	res := s.result
	return &res, nil
}

// stalled reports a deadlock: no events in flight but queries unfinished.
func (s *Sim) stalled() bool {
	return len(s.events) == 0 && len(s.state.Queries) > 0
}

func (s *Sim) push(e *simEvent) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// newEvent draws a recycled event struct or allocates a fresh one.
func (s *Sim) newEvent() *simEvent {
	if n := len(s.freeEvents); n > 0 {
		e := s.freeEvents[n-1]
		s.freeEvents = s.freeEvents[:n-1]
		*e = simEvent{}
		return e
	}
	return &simEvent{}
}

func (s *Sim) handleArrival(sched Scheduler, ev *simEvent) {
	q := newQueryState(s.nextQID, ev.arr.Plan, ev.at)
	s.nextQID++
	s.arrived++
	s.state.Queries = append(s.state.Queries, q)
	s.instr.admitted.Inc()
	s.trace(metrics.EvQueryAdmit, q.ID, -1, -1, 0, q.Plan.QueryName)
	s.invoke(sched, Event{Kind: EvQueryArrival, Time: ev.at, QueryID: q.ID})
	s.dispatch()
}

// handlePoolChange grows or shrinks the worker pool and fires the
// corresponding scheduling event.
func (s *Sim) handlePoolChange(sched Scheduler, ev *simEvent) {
	if ev.delta > 0 {
		for i := 0; i < ev.delta; i++ {
			s.state.Threads = append(s.state.Threads, ThreadInfo{ID: s.nextThreadID(), LastQuery: -1})
		}
	} else {
		// Retire idle workers immediately; busy ones retire when their
		// current work order completes.
		toRetire := -ev.delta
		for i := len(s.state.Threads) - 1; i >= 0 && toRetire > 0 && len(s.state.Threads) > 1; i-- {
			if !s.state.Threads[i].Busy {
				s.state.Threads = append(s.state.Threads[:i], s.state.Threads[i+1:]...)
				toRetire--
			}
		}
		s.pendingRetire += toRetire
	}
	s.invoke(sched, Event{Kind: ev.kind, Time: s.state.Now})
	s.dispatch()
}

// nextThreadID returns an ID unused by any current worker.
func (s *Sim) nextThreadID() int {
	max := -1
	for _, t := range s.state.Threads {
		if t.ID > max {
			max = t.ID
		}
	}
	return max + 1
}

// threadByID finds a worker by its stable ID (indices shift when the
// pool shrinks).
func (s *Sim) threadByID(id int) *ThreadInfo {
	for i := range s.state.Threads {
		if s.state.Threads[i].ID == id {
			return &s.state.Threads[i]
		}
	}
	return nil
}

func (s *Sim) handleCompletion(sched Scheduler, ev *simEvent) {
	st := ev.stats
	q := s.state.Query(st.WorkOrder.QueryID)
	thread := s.threadByID(st.ThreadID)
	if thread != nil && s.pendingRetire > 0 && len(s.state.Threads) > 1 {
		// A shrink request is outstanding: retire this worker now that
		// its work order finished.
		for i := range s.state.Threads {
			if s.state.Threads[i].ID == st.ThreadID {
				s.state.Threads = append(s.state.Threads[:i], s.state.Threads[i+1:]...)
				break
			}
		}
		s.pendingRetire--
		thread = nil
	}
	if thread != nil {
		thread.Busy = false
		thread.LastQuery = st.WorkOrder.QueryID
	}
	s.result.WorkOrders++
	if q == nil {
		// Query was already finalized (cannot happen: the sink finishes
		// last), but guard anyway.
		s.dispatch()
		return
	}
	s.runningWOs[q.ID]--
	os := q.OpStates[st.WorkOrder.OpID]
	os.Completed++
	s.instr.completed.Inc()
	s.instr.opLatency[os.Op.Type].Observe(st.Duration)
	s.trace(metrics.EvComplete, q.ID, os.Op.ID, st.ThreadID, st.Duration, os.Op.Type.String())
	if s.cfg.Trace != nil {
		// Prediction error observed at completion: what the O-DUR
		// estimator would have predicted for this work order vs. what it
		// measured. The estimator keeps its own error histograms; the
		// trace records the per-completion signal.
		pred := s.state.Estimator.EstimateDuration(opKey(q.ID, os.Op.ID), 1)
		s.trace(metrics.EvCostUpdate, q.ID, os.Op.ID, -1, st.Duration-pred, "")
	}
	s.state.Estimator.ObserveCompletion(opKey(q.ID, os.Op.ID), st.Duration, st.Memory)
	opDone := false
	if os.Completed >= os.TotalWOs {
		os.Done = true
		os.Active = false
		opDone = true
	}
	if q.Done() {
		q.Completion = s.state.Now
		s.result.Durations[q.ID] = q.Completion - q.Arrival
		s.removeQuery(q.ID)
		delete(s.runningWOs, q.ID)
		s.instr.finished.Inc()
		s.instr.queryLatency.Observe(q.Completion - q.Arrival)
		s.trace(metrics.EvQueryFinish, q.ID, -1, -1, q.Completion-q.Arrival, q.Plan.QueryName)
		if s.observer != nil {
			s.observer.QueryCompleted(q.ID, q.Arrival, q.Completion)
		}
	}
	if opDone {
		s.invoke(sched, Event{Kind: EvOperatorDone, Time: s.state.Now, QueryID: st.WorkOrder.QueryID, OpID: st.WorkOrder.OpID})
	} else if s.pendingDispatch() == 0 {
		// Thread has nothing runnable: surface a thread-free event so the
		// scheduler can activate more work.
		s.invoke(sched, Event{Kind: EvThreadFree, Time: s.state.Now, QueryID: st.WorkOrder.QueryID})
	}
	s.dispatch()
}

func (s *Sim) removeQuery(id int) {
	for i, q := range s.state.Queries {
		if q.ID == id {
			s.state.Queries = append(s.state.Queries[:i], s.state.Queries[i+1:]...)
			return
		}
	}
}

// invoke calls the scheduler, records the trace point, applies decisions.
func (s *Sim) invoke(sched Scheduler, ev Event) {
	s.result.EventTrace = append(s.result.EventTrace, TracePoint{Time: s.state.Now, Queries: len(s.state.Queries)})
	s.result.SchedInvocations++
	s.instr.triggers.Inc()
	s.instr.queueDepth.Set(float64(len(s.state.Queries)))
	s.instr.freeThreads.Set(float64(s.state.FreeThreads()))
	s.instr.poolSize.Set(float64(len(s.state.Threads)))
	s.trace(metrics.EvTrigger, ev.QueryID, ev.OpID, -1, 0, ev.Kind.String())
	if s.schedMu != nil {
		s.schedMu.Lock()
	}
	var decisions []Decision
	if s.cfg.MeasureOverhead {
		start := time.Now()
		decisions = sched.OnEvent(s.state, ev)
		s.result.SchedOverhead += time.Since(start)
	} else {
		decisions = sched.OnEvent(s.state, ev)
	}
	for _, d := range decisions {
		s.apply(d)
	}
	if s.schedMu != nil {
		s.schedMu.Unlock()
	}
}

// apply activates the decision's pipeline and updates the thread grant.
func (s *Sim) apply(d Decision) {
	q := s.state.Query(d.QueryID)
	if q == nil {
		return
	}
	if d.Threads > 0 {
		max := len(s.state.Threads)
		if d.Threads > max {
			d.Threads = max
		}
		q.AssignedThreads = d.Threads
	}
	if d.RootOpID < 0 || d.RootOpID >= len(q.OpStates) {
		return
	}
	root := q.OpStates[d.RootOpID]
	if root.Done || root.Active {
		return
	}
	// Refuse illegal roots (inputs incomplete) rather than corrupting
	// availability accounting; schedulers are expected to pick from
	// SchedulableRoots.
	for _, e := range root.Op.Children() {
		if !q.OpStates[e.Child.ID].Done {
			return
		}
	}
	chain := appendPipelineChain(s.chainBuf[:0], q, root.Op, d.PipelineDepth)
	s.chainBuf = chain
	for i, opID := range chain {
		os := q.OpStates[opID]
		os.Active = true
		os.Pipelined = i > 0
		q.activationOrder = append(q.activationOrder, opID)
	}
	s.result.SchedActions++
	s.instr.decisions.Inc()
	s.trace(metrics.EvDecision, d.QueryID, d.RootOpID, -1, float64(len(chain)-1), root.Op.Type.String())
}

// pendingDispatch counts work orders that could be dispatched right now
// if threads were free.
func (s *Sim) pendingDispatch() int {
	n := 0
	for _, q := range s.state.Queries {
		for _, opID := range q.activationOrder {
			n += q.OpStates[opID].availableWOs(q)
		}
	}
	return n
}

// activeMemory estimates the memory footprint of all currently active
// operators; over-committing the buffer pool causes thrashing.
func (s *Sim) activeMemory() float64 {
	m := 0.0
	for _, q := range s.state.Queries {
		for _, os := range q.OpStates {
			if os.Active && !os.Done {
				m += s.cost.BaseMemory(os.Op)
			}
		}
	}
	return m
}

// dispatched is one work-order assignment made during a dispatch round.
type dispatched struct {
	wo       WorkOrder
	q        *QueryState
	os       *OpState
	threadID int
}

// dispatch assigns free threads to available work orders, honoring
// per-query grants and preferring older activations (stable pipelines).
//
// With an executeHook installed (the live engine), the round's work
// orders are executed concurrently on real goroutines — one per
// assigned thread — and the loop blocks until the whole round finishes.
// Scheduling state is only touched before the fork and after the join,
// so the event loop stays single-threaded; the hook and anything it
// reaches must be race-safe (go test -race ./internal/engine/ proves
// it for the live executor and the metrics instrumentation).
func (s *Sim) dispatch() {
	thrash := 1.0
	if mem := s.activeMemory(); mem > s.cost.BufferCapacity {
		thrash = 1 + s.cost.ThrashFactor*(mem-s.cost.BufferCapacity)/s.cost.BufferCapacity
	}
	batch := s.batchBuf[:0]
	for ti := range s.state.Threads {
		t := &s.state.Threads[ti]
		if t.Busy {
			continue
		}
		wo, q, os := s.pickWorkOrder(t)
		if os == nil {
			continue
		}
		os.Dispatched++
		s.runningWOs[q.ID]++
		t.Busy = true
		s.instr.dispatched.Inc()
		s.trace(metrics.EvDispatch, q.ID, os.Op.ID, t.ID, float64(wo.BlockIndex), os.Op.Type.String())
		if s.executeHook != nil {
			batch = append(batch, dispatched{wo: wo, q: q, os: os, threadID: t.ID})
			continue
		}
		dur := s.cost.BaseDuration(os.Op)
		if wo.Pipelined {
			dur *= s.cost.PipelineDiscount
		}
		if t.LastQuery == q.ID {
			dur *= s.cost.LocalityDiscount
		}
		dur *= thrash
		if s.cfg.NoiseFrac > 0 {
			dur *= 1 + s.cfg.NoiseFrac*(2*s.rng.Float64()-1)
		}
		if dur <= 0 {
			dur = 1e-6
		}
		s.pushCompletion(wo, dur, s.cost.BaseMemory(os.Op), t.ID)
	}
	if len(batch) > 0 {
		s.executeBatch(batch)
		// Drop the round's query/op pointers before parking the buffer so
		// reuse does not pin completed queries' state.
		for i := range batch {
			batch[i] = dispatched{}
		}
	}
	s.batchBuf = batch
	// Refresh the occupancy gauge after assignment: the values set at
	// scheduler invocation are pre-dispatch, so a /metrics scrape
	// landing between events would otherwise always see the pool as
	// free even while every thread is busy.
	s.instr.freeThreads.Set(float64(s.state.FreeThreads()))
	if s.afterDispatch != nil {
		s.afterDispatch()
	}
}

// executeBatch really runs one dispatch round's work orders through the
// executeHook — concurrently when the round assigned several threads —
// and converts the measured (duration, memory) into completion events.
func (s *Sim) executeBatch(batch []dispatched) {
	durs := growFloats(s.dursBuf, len(batch))
	mems := growFloats(s.memsBuf, len(batch))
	s.dursBuf, s.memsBuf = durs, mems
	if len(batch) == 1 {
		durs[0], mems[0] = s.executeHook(batch[0].q, batch[0].os, batch[0].wo)
	} else if s.execJobs != nil {
		s.execBatch = batch
		s.execWG.Add(len(batch))
		for i := range batch {
			s.execJobs <- i
		}
		s.execWG.Wait()
	} else {
		// No worker pool (pool grew past the initial single thread):
		// fall back to a goroutine per work order.
		var wg sync.WaitGroup
		for i := range batch {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				durs[i], mems[i] = s.executeHook(batch[i].q, batch[i].os, batch[i].wo)
			}(i)
		}
		wg.Wait()
	}
	for i, d := range batch {
		dur := durs[i]
		if dur <= 0 {
			dur = 1e-9
		}
		s.pushCompletion(d.wo, dur, mems[i], d.threadID)
	}
}

// execWorker is one goroutine of the run's executor pool: it executes
// work orders by batch index until the job channel closes at run end.
func (s *Sim) execWorker(jobs <-chan int) {
	for i := range jobs {
		d := s.execBatch[i]
		s.dursBuf[i], s.memsBuf[i] = s.executeHook(d.q, d.os, d.wo)
		s.execWG.Done()
	}
}

// pushCompletion schedules the work order's completion event.
func (s *Sim) pushCompletion(wo WorkOrder, dur, mem float64, threadID int) {
	ev := s.newEvent()
	ev.at = s.state.Now + dur
	ev.kind = EvOperatorDone
	ev.stats = CompletionStats{
		WorkOrder:  wo,
		Duration:   dur,
		Memory:     mem,
		ThreadID:   threadID,
		FinishedAt: s.state.Now + dur,
	}
	s.push(ev)
}

// pickWorkOrder selects the next work order for thread t: prefer the
// thread's last query (locality), then queries in arrival order; within a
// query, prefer the oldest activation with available work.
func (s *Sim) pickWorkOrder(t *ThreadInfo) (WorkOrder, *QueryState, *OpState) {
	try := func(q *QueryState) (WorkOrder, *OpState) {
		if s.runningWOs[q.ID] >= q.AssignedThreads {
			return WorkOrder{}, nil
		}
		for _, opID := range q.activationOrder {
			os := q.OpStates[opID]
			if os.availableWOs(q) > 0 {
				return WorkOrder{
					QueryID:    q.ID,
					OpID:       opID,
					BlockIndex: os.Dispatched,
					Pipelined:  os.Pipelined,
				}, os
			}
		}
		return WorkOrder{}, nil
	}
	if t.LastQuery >= 0 {
		if q := s.state.Query(t.LastQuery); q != nil {
			if wo, os := try(q); os != nil {
				return wo, q, os
			}
		}
	}
	for _, q := range s.state.Queries {
		if wo, os := try(q); os != nil {
			return wo, q, os
		}
	}
	return WorkOrder{}, nil, nil
}

func opKey(queryID, opID int) int { return queryID*1024 + opID }

// growFloats returns a slice of length exactly n, reusing the backing
// array when capacity allows.
func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}
