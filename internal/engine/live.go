package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Live executes query plans against real storage blocks on a bounded
// worker pool, under the same Scheduler interface and scheduling events
// as the simulator. It exists to (a) ground the simulator's cost model
// in real executions and (b) power the runnable examples: a Select work
// order really filters tuples, a BuildHash order really builds a hash
// table, and durations are measured wall-clock.
//
// Work orders run on the vectorized kernels of internal/exec: typed
// branch-hoisted selection, radix-partitioned open-addressing hash
// tables with batch probe, dictionary-coded string columns that run
// through the integer kernels, pooled-block gather, and a radix sort on
// the key-extracted path. A Select whose sole consumer is a blocking
// operator fuses its projection into that consumer's input column, and
// large work orders split into row-range morsels that soak up idle
// worker threads (see live_morsel.go). The per-operator runners live in
// live_select.go, live_join.go, live_agg.go and live_sort.go.
//
// The engine executes one workload per Run call. Queries arrive on the
// wall clock according to their Arrival offsets (scaled by TimeScale).
// Live keeps its block pool and scratch buffers across Run calls so
// steady-state serving reaches a near-zero per-query allocation rate;
// all of that shared state is mutex- or sync.Pool-guarded, which is
// what keeps concurrent RunOne calls from independent executor workers
// safe.
type Live struct {
	cfg     LiveConfig
	catalog *storage.Catalog
	// pool recycles materialized output blocks across work orders and
	// across runs.
	pool *exec.BlockPool
	// scratch holds per-worker *exec.Scratch buffers (selection
	// vectors, sort pairs, probe marks) reused across runs; sync.Pool
	// gives each concurrently executing work order (and each morsel
	// helper) its own.
	scratch sync.Pool
	// aggTables recycles grouped-aggregate hash tables across queries:
	// a completed query's table is Reset (capacity kept) and handed to
	// the next query's Aggregate operator, so steady-state serving
	// skips the grow-from-minimum ladder entirely.
	aggTables sync.Pool
	// estimators recycles Reset cost estimators across Run calls, so
	// the per-opKey windows (and their backing arrays) are allocated
	// once, not per run (a reset estimator is observationally identical
	// to a new one and keeps its instruments). Each Run draws its own,
	// keeping concurrent RunOne calls isolated.
	estimators sync.Pool
	// schedMu is the lock behind the Scheduler contract, shared by every
	// run's Sim. One per engine, not per scheduler: driving one Live with
	// two schedulers at once merely over-serialises them.
	schedMu sync.Mutex
	// simInstr/instr are the metric handles every run shares; kernelWO
	// indexes instr's live_kernel_wo_* counters by kernel.
	simInstr *simInstruments
	instr    liveInstruments
	kernelWO [numKernels]*metrics.Counter
	// opFree recycles per-query op-state slices (and the structs in
	// them) across query completions.
	opMu   sync.Mutex
	opFree [][]*liveOpState
	// morsels is the resolved per-work-order split bound (1 = off).
	morsels int
	// fused caches the single-column projection schemas the fused
	// select path emits (see fusedSchema).
	fmu   sync.Mutex
	fused map[fusedKey]*storage.Schema
	// reference, when set, replaces the exec-kernel runners. Only the
	// engine's tests set it, to run whole workloads on the per-row
	// reference the kernels are held to; it is nil in production.
	reference *[numKernels]blockRunner
}

// LiveConfig configures a live engine.
type LiveConfig struct {
	// Threads is the worker pool size.
	Threads int
	// TimeScale multiplies arrival offsets to convert workload time
	// units into wall-clock seconds (e.g. 0.01 compresses a long trace).
	TimeScale float64
	// Morsels bounds how many row-range morsels one large work order
	// may split into to recruit idle workers: 0 resolves to
	// min(4, Threads, GOMAXPROCS), 1 disables splitting, larger values
	// are clamped to the engine's fixed per-work-order fan-out bound.
	// Splitting never changes results — morsel outputs are stitched
	// back in row order (see live_morsel.go).
	Morsels int
	// Metrics, when non-nil, receives the engine's counters and latency
	// histograms plus the live executor's own wall-clock instruments.
	// Worker goroutines update them concurrently, so the registry's
	// race-safety is load-bearing here.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives the engine's typed trace events.
	Trace *metrics.Tracer
}

// NewLive builds a live engine over the given catalog.
func NewLive(catalog *storage.Catalog, cfg LiveConfig) *Live {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	m := cfg.Morsels
	if m <= 0 {
		m = cfg.Threads
		if p := runtime.GOMAXPROCS(0); p < m {
			m = p
		}
		if m > 4 {
			m = 4
		}
	}
	if m > maxMorselParts {
		m = maxMorselParts
	}
	instr := newLiveInstruments(cfg.Metrics)
	k := &instr.kernels
	lv := &Live{
		cfg:      cfg,
		catalog:  catalog,
		pool:     exec.NewBlockPool(),
		morsels:  m,
		fused:    make(map[fusedKey]*storage.Schema),
		simInstr: newSimInstruments(cfg.Metrics),
		instr:    instr,
		kernelWO: [numKernels]*metrics.Counter{
			passthroughKernel: k.passthrough,
			selectKernel:      k.sel,
			buildKernel:       k.build,
			probeKernel:       k.probe,
			aggregateKernel:   k.aggregate,
			sortKernel:        k.sortk,
			finalizeKernel:    k.finalize,
		},
	}
	lv.scratch.New = func() any { return &exec.Scratch{} }
	lv.aggTables.New = func() any { return exec.NewSumTable(0) }
	lv.estimators.New = func() any { return newEstimator(cfg.Metrics) }
	// Registry lookups are nil-safe: with metrics disabled these are
	// nil instruments whose operations no-op.
	reg := cfg.Metrics
	lv.pool.Instrument(reg.Counter("live_block_pool_hits"), reg.Counter("live_block_pool_misses"))
	return lv
}

// liveOpState is the execution-time state of one operator.
type liveOpState struct {
	// outputs collects the operator's produced blocks, consumed by
	// parents.
	outputs []*storage.Block
	// hash is the BuildHash result shared with ProbeHash parents.
	hash *exec.RadixTable
	// agg accumulates the operator's grouped aggregate.
	agg *exec.SumTable
	// pooled tracks which outputs were drawn from the block pool, so
	// they can be recycled when the owning query completes.
	pooled []*storage.Block
	mu     sync.Mutex
}

// LiveResult summarizes a live run.
type LiveResult struct {
	// Durations maps query ID to wall-clock duration in seconds.
	Durations map[int]float64
	// Makespan is the wall-clock length of the whole run in seconds.
	Makespan float64
	// WorkOrders counts executed work orders.
	WorkOrders int
	// OpDurations records mean per-work-order wall time by operator
	// type, used to calibrate the simulator's cost model.
	OpDurations map[plan.OpType]float64
	// OpMemory records mean per-work-order memory estimate by operator
	// type — the observation stream an admission controller feeds its
	// per-type O-MEM windows from.
	OpMemory map[plan.OpType]float64
	// OutputRows maps query ID to the number of rows its sink produced.
	OutputRows map[int]int
}

// Run executes the workload under the scheduler. It reuses the
// simulator's state bookkeeping (QueryState, decisions, availability)
// but with real block processing and wall-clock time.
func (lv *Live) Run(sched Scheduler, arrivals []Arrival) (*LiveResult, error) {
	// The live engine reuses the Sim event loop with a twist: instead of
	// cost-model durations, each dispatched work order is really
	// executed and its measured wall time becomes the virtual duration.
	// This keeps scheduling semantics identical across engines.
	lr := lv.newRun()
	sim := newSim(SimConfig{Threads: lv.cfg.Threads, Seed: 1, Metrics: lv.cfg.Metrics, Trace: lv.cfg.Trace}, lr.estimator, lv.simInstr)
	sim.schedMu = &lv.schedMu
	sim.executeHook = lr.execute
	// Recycle a query's pooled blocks the moment it completes; the live
	// engine owns this sim, so the observer slot is free. Schedulers
	// that observe lifecycles themselves are forwarded to.
	if o, ok := sched.(QueryObserver); ok {
		lr.observer = o
	}
	sim.SetObserver(lr)
	scaled := make([]Arrival, len(arrivals))
	for i, a := range arrivals {
		scaled[i] = Arrival{Plan: a.Plan, At: a.At * lv.cfg.TimeScale}
	}
	res, err := sim.Run(sched, scaled)
	// The sim (and the liveRun holding the estimator) is dead either
	// way, so the estimator goes back to the pool for the next run.
	lr.estimator.Reset()
	lv.estimators.Put(lr.estimator)
	if err != nil {
		return nil, err
	}
	for id, d := range res.Durations {
		lr.result.Durations[id] = d
	}
	lr.result.Makespan = res.Makespan
	lr.result.WorkOrders = res.WorkOrders
	for t, total := range lr.opTotals {
		lr.result.OpDurations[t] = total / float64(lr.opCounts[t])
	}
	for t, total := range lr.memTotals {
		lr.result.OpMemory[t] = total / float64(lr.opCounts[t])
	}
	return lr.result, nil
}

// RunOne executes a single plan arriving immediately — the unit of work
// a query front door dispatches per admitted request. The plan is
// cloned here — the one private copy a served query gets — so shared
// templates can be submitted concurrently; the state Live carries
// across Run calls (block pool, scratch buffers, fused-schema cache) is
// concurrency-safe and scheduler calls are serialised, which is what
// makes concurrent RunOne calls from independent executor workers safe.
func (lv *Live) RunOne(sched Scheduler, p *plan.Plan) (*LiveResult, error) {
	return lv.Run(sched, []Arrival{{Plan: p.Clone(), At: 0}})
}

// liveRun carries per-run execution state. Work orders of one dispatch
// round execute on concurrent goroutines (see Sim.executeBatch), so
// everything here is either mu-guarded, per-operator mutex-guarded
// (liveOpState), or an atomic metrics instrument.
type liveRun struct {
	live *Live
	// morselGate holds one token per borrowable helper thread; nil when
	// morsels are off, which the acquire path treats as "no helpers".
	morselGate chan struct{}
	// estimator is the run's O-DUR/O-MEM estimator (the sim's); it
	// receives achieved morsel parallelism under estMu, because worker
	// goroutines report concurrently.
	estimator *costmodel.Estimator
	estMu     sync.Mutex
	mu        sync.Mutex
	states    map[int][]*liveOpState
	result    *LiveResult
	opTotals  map[plan.OpType]float64
	memTotals map[plan.OpType]float64
	opCounts  map[plan.OpType]int
	// observer forwards query completions to the run's scheduler when
	// it observes lifecycles (e.g. to join flight-recorder entries to
	// outcomes); the live engine itself owns the sim's observer slot.
	observer QueryObserver
}

// newRun builds one run's execution state over lv, drawing its
// estimator from the engine's pool. Run and the engine's tests both
// construct runs here.
func (lv *Live) newRun() *liveRun {
	lr := &liveRun{
		live:   lv,
		states: make(map[int][]*liveOpState),
		result: &LiveResult{
			Durations:   make(map[int]float64),
			OpDurations: make(map[plan.OpType]float64),
			OpMemory:    make(map[plan.OpType]float64),
			OutputRows:  make(map[int]int),
		},
		opTotals:  make(map[plan.OpType]float64),
		memTotals: make(map[plan.OpType]float64),
		opCounts:  make(map[plan.OpType]int),
		estimator: lv.estimators.Get().(*costmodel.Estimator),
	}
	if lv.morsels > 1 && lv.cfg.Threads > 1 {
		// Helper tokens: a splitting work order may borrow up to
		// Threads-1 extra goroutines beyond the one it runs on.
		lr.morselGate = make(chan struct{}, lv.cfg.Threads-1)
		for i := 0; i < lv.cfg.Threads-1; i++ {
			lr.morselGate <- struct{}{}
		}
	}
	return lr
}

// opState returns the execution state of one operator under the run
// lock; concurrent workers must not read the states map bare, because
// a worker admitting a new query writes it.
func (lr *liveRun) opState(queryID, opID int) *liveOpState {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.states[queryID][opID]
}

// getScratch borrows a per-worker scratch buffer; callers must return
// it with putScratch once the work order's kernels are done with it.
func (lr *liveRun) getScratch() *exec.Scratch { return lr.live.scratch.Get().(*exec.Scratch) }

func (lr *liveRun) putScratch(s *exec.Scratch) { lr.live.scratch.Put(s) }

// getOpStates draws a recycled per-query op-state slice from the owning
// Live, re-using the structs left in it by completed queries. Called
// with lr.mu held.
func (lr *liveRun) getOpStates(n int) []*liveOpState {
	var sts []*liveOpState
	lv := lr.live
	lv.opMu.Lock()
	if k := len(lv.opFree); k > 0 {
		sts = lv.opFree[k-1][:0]
		lv.opFree = lv.opFree[:k-1]
	}
	lv.opMu.Unlock()
	for len(sts) < n && len(sts) < cap(sts) {
		sts = sts[:len(sts)+1]
		if sts[len(sts)-1] == nil {
			sts[len(sts)-1] = &liveOpState{}
		}
	}
	for len(sts) < n {
		sts = append(sts, &liveOpState{})
	}
	return sts
}

// putOpStates resets a completed query's op states (keeping their
// slice capacities) and parks the slice for the next query.
func (lr *liveRun) putOpStates(sts []*liveOpState) {
	for _, st := range sts {
		st.outputs = st.outputs[:0]
		st.pooled = st.pooled[:0]
		st.hash = nil
		st.agg = nil
	}
	lr.live.opMu.Lock()
	lr.live.opFree = append(lr.live.opFree, sts)
	lr.live.opMu.Unlock()
}

// QueryCompleted implements QueryObserver: once a query finishes, no
// work order can reference its intermediate blocks anymore, so its
// pooled outputs return to the block pool and its execution state is
// dropped. The Sim invokes this from the event loop between dispatch
// rounds, never concurrently with worker goroutines.
func (lr *liveRun) QueryCompleted(queryID int, arrival, completion float64) {
	lr.mu.Lock()
	sts := lr.states[queryID]
	delete(lr.states, queryID)
	lr.mu.Unlock()
	for _, st := range sts {
		st.mu.Lock()
		pooled := st.pooled
		st.pooled = nil
		agg := st.agg
		st.agg = nil
		st.mu.Unlock()
		for _, b := range pooled {
			lr.live.pool.Put(b)
		}
		st.pooled = pooled[:0] // keep the slice capacity for the next query
		if agg != nil {
			agg.Reset()
			lr.live.aggTables.Put(agg)
		}
	}
	lr.putOpStates(sts)
	if lr.observer != nil {
		lr.live.schedMu.Lock()
		lr.observer.QueryCompleted(queryID, arrival, completion)
		lr.live.schedMu.Unlock()
	}
}

// execute really runs one work order and returns its measured duration
// (in seconds) and memory estimate. It is invoked by the Sim dispatch
// hook in place of the cost model.
func (lr *liveRun) execute(q *QueryState, os *OpState, wo WorkOrder) (dur, mem float64) {
	lr.mu.Lock()
	sts, ok := lr.states[q.ID]
	if !ok {
		sts = lr.getOpStates(len(q.Plan.Ops))
		lr.states[q.ID] = sts
	}
	lr.mu.Unlock()

	st := sts[os.Op.ID]
	start := time.Now()
	rows := lr.runWorkOrder(q, os.Op, st, wo.BlockIndex)
	elapsed := time.Since(start).Seconds()
	lr.live.instr.executed.Inc()
	lr.live.instr.wallLatency[os.Op.Type].Observe(elapsed)

	lr.mu.Lock()
	lr.opTotals[os.Op.Type] += elapsed
	lr.memTotals[os.Op.Type] += float64(rows) / 1000
	lr.opCounts[os.Op.Type]++
	if len(os.Op.Parents()) == 0 {
		lr.result.OutputRows[q.ID] += rows
	}
	lr.mu.Unlock()
	return elapsed, float64(rows) / 1000
}

// mainChild returns the child whose outputs op draws its input blocks
// from — the last, pipelining edge — nil for leaves.
func mainChild(op *plan.Operator) *plan.Operator {
	ch := op.Children()
	if len(ch) == 0 {
		return nil
	}
	return ch[len(ch)-1].Child
}

// inputBlock fetches the idx-th input block of op: from the base
// relation for leaves, or from the main child's outputs otherwise.
func (lr *liveRun) inputBlock(q *QueryState, op *plan.Operator, idx int) *storage.Block {
	child := mainChild(op)
	if child == nil {
		if len(op.InputRelations) == 0 {
			return nil
		}
		rel, ok := lr.live.catalog.Relation(op.InputRelations[0])
		if !ok || len(rel.Blocks) == 0 {
			return nil
		}
		return rel.Blocks[idx%len(rel.Blocks)]
	}
	cs := lr.opState(q.ID, child.ID)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.outputs) == 0 {
		return nil
	}
	return cs.outputs[idx%len(cs.outputs)]
}

// keyColumn picks the operator's key column index in a block: the first
// declared column present that the kernels can key on (an int column,
// or a dictionary-coded string column whose codes preserve string
// order), else the first such column in the schema.
func keyColumn(op *plan.Operator, b *storage.Block) int {
	keyable := func(i int) bool {
		switch b.Schema.Columns[i].Type {
		case storage.Int64Col:
			return true
		case storage.StringCol:
			v := &b.Vectors[i]
			return v.Codes != nil && v.Dict != nil
		}
		return false
	}
	for _, c := range op.Columns {
		if i := b.Schema.ColumnIndex(c); i >= 0 && keyable(i) {
			return i
		}
	}
	for i := range b.Schema.Columns {
		if keyable(i) {
			return i
		}
	}
	return -1
}

// keyVec returns the int64 key vector of a keyColumn pick: the Ints of
// an integer column, or the Codes of a dictionary-coded string column
// (with its dictionary). The dictionary is sorted, so code order is
// string order and the integer kernels compute string semantics.
func keyVec(b *storage.Block, col int) ([]int64, *storage.Dictionary) {
	v := &b.Vectors[col]
	if v.Ints != nil {
		return v.Ints, nil
	}
	if v.Codes != nil && v.Dict != nil {
		return v.Codes, v.Dict
	}
	return nil, nil
}

// kernel names the runner a work order executes on.
type kernel uint8

const (
	passthroughKernel kernel = iota
	selectKernel
	buildKernel
	probeKernel
	aggregateKernel
	sortKernel
	finalizeKernel
	numKernels
)

// kernelOf is the one operator-kind → kernel mapping: dispatch
// (kernelRunners, Live.reference) and the live_kernel_wo_* counters
// (Live.kernelWO) both index by it.
func kernelOf(t plan.OpType) kernel {
	switch t {
	case plan.Select:
		return selectKernel
	case plan.BuildHash:
		return buildKernel
	case plan.ProbeHash, plan.IndexNestedLoopJoin, plan.MergeJoin, plan.NestedLoopJoin:
		return probeKernel
	case plan.Aggregate, plan.Distinct, plan.Window:
		return aggregateKernel
	case plan.Sort, plan.TopK:
		return sortKernel
	case plan.FinalizeAggregate:
		return finalizeKernel
	}
	return passthroughKernel
}

// blockRunner executes one work order of op over input block in (nil
// for finalize, which reads its child's aggregate state instead) and
// returns the rows it produced.
type blockRunner func(lr *liveRun, q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int

// kernelRunners are the engine's runners, one per kernel.
var kernelRunners = [numKernels]blockRunner{
	passthroughKernel: (*liveRun).runPassthrough,
	selectKernel:      (*liveRun).runSelect,
	buildKernel:       (*liveRun).runBuild,
	probeKernel:       (*liveRun).runProbe,
	aggregateKernel:   (*liveRun).runAggregate,
	sortKernel:        (*liveRun).runSort,
	finalizeKernel:    (*liveRun).runFinalize,
}

// runWorkOrder executes one (operator, block) unit and returns the rows
// it produced.
func (lr *liveRun) runWorkOrder(q *QueryState, op *plan.Operator, st *liveOpState, idx int) int {
	k := kernelOf(op.Type)
	// Count the work order against its kernel before fetching input, so
	// the per-kernel counters sum to the engine's work-order total even
	// when a work order draws an empty block.
	lr.live.kernelWO[k].Inc()
	var in *storage.Block
	// FinalizeAggregate consumes its child's aggregate state, not its
	// output blocks, so it bypasses the block-input path.
	if k != finalizeKernel {
		if in = lr.inputBlock(q, op, idx); in == nil || in.NumRows() == 0 {
			return 0
		}
	}
	run := kernelRunners[k]
	if ref := lr.live.reference; ref != nil {
		run = ref[k]
	}
	return run(lr, q, op, st, in)
}

// runPassthrough references the input block unchanged: columnar blocks
// are immutable here.
func (lr *liveRun) runPassthrough(_ *QueryState, _ *plan.Operator, st *liveOpState, in *storage.Block) int {
	st.mu.Lock()
	st.outputs = append(st.outputs, in)
	st.mu.Unlock()
	return in.NumRows()
}

// emitPooled appends a pool-drawn output block to the operator's output
// list and records it for recycling at query completion.
func (lr *liveRun) emitPooled(st *liveOpState, out *storage.Block) {
	st.mu.Lock()
	st.outputs = append(st.outputs, out)
	st.pooled = append(st.pooled, out)
	st.mu.Unlock()
}

// Validate checks the catalog has every base relation the plans need.
func (lv *Live) Validate(plans []*plan.Plan) error {
	for _, p := range plans {
		for _, op := range p.Leaves() {
			for _, rel := range op.InputRelations {
				if _, ok := lv.catalog.Relation(rel); !ok {
					return fmt.Errorf("engine: plan %q needs relation %q not in catalog", p.QueryName, rel)
				}
			}
		}
	}
	return nil
}
