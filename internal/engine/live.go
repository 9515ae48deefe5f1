package engine

import (
	"fmt"
	"runtime"
	"sort"
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
// Work orders run on the vectorized kernels of internal/exec by
// default: typed branch-hoisted selection, radix-partitioned
// open-addressing hash tables with batch probe, dictionary-coded string
// columns that run through the integer kernels, pooled-block gather,
// and a radix sort on the key-extracted path. A Select whose sole
// consumer is a blocking operator fuses its projection into that
// consumer's input column, and large work orders split into row-range
// morsels that soak up idle worker threads (see live_morsel.go). A
// scalar per-row path is the reference semantics the differential
// tests hold the kernels to; only tests can select it (Live.scalar).
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
	// scalar runs work orders on the per-row reference path (map-based
	// hash state, per-block allocation) instead of the exec kernels.
	// Set only by the differential tests.
	scalar bool
	// pool recycles materialized output blocks across work orders and
	// across runs.
	pool *exec.BlockPool
	// scratch holds per-worker *exec.Scratch buffers (selection
	// vectors, sort pairs, probe marks) reused across runs.
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
	// simInstr/instr are the metric handles every run shares.
	simInstr *simInstruments
	instr    liveInstruments
	// opFree recycles per-query op-state slices (and the structs in
	// them) across query completions.
	opMu   sync.Mutex
	opFree [][]*liveOpState
	// morsels is the resolved per-work-order split bound (1 = off).
	morsels int
	// fused caches the single-column projection schemas the fused
	// select path emits, keyed by (input schema, column); schemas must
	// be pointer-stable because the block pool keys free lists by
	// schema pointer.
	fmu   sync.Mutex
	fused map[fusedKey]*storage.Schema
}

type fusedKey struct {
	schema *storage.Schema
	col    int
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
	lv := &Live{
		cfg:      cfg,
		catalog:  catalog,
		pool:     exec.NewBlockPool(),
		morsels:  m,
		fused:    make(map[fusedKey]*storage.Schema),
		simInstr: newSimInstruments(cfg.Metrics),
		instr:    newLiveInstruments(cfg.Metrics),
	}
	// Registry lookups are nil-safe: with metrics disabled these are
	// nil instruments whose operations no-op.
	reg := cfg.Metrics
	lv.pool.Instrument(reg.Counter("live_block_pool_hits"), reg.Counter("live_block_pool_misses"))
	return lv
}

// fusedSchema returns the cached single-column schema for the fused
// select→consumer path, creating it on first use. Caching keeps the
// schema pointer stable so pooled fused blocks recycle.
func (lv *Live) fusedSchema(s *storage.Schema, col int) *storage.Schema {
	key := fusedKey{schema: s, col: col}
	lv.fmu.Lock()
	defer lv.fmu.Unlock()
	if sc, ok := lv.fused[key]; ok {
		return sc
	}
	sc := storage.MustSchema(s.Columns[col])
	lv.fused[key] = sc
	return sc
}

// liveOpState is the execution-time state of one operator.
type liveOpState struct {
	inputs []*storage.Block
	// outputs collects the operator's produced blocks, consumed by
	// parents.
	outputs []*storage.Block
	// hash is the BuildHash result shared with ProbeHash parents
	// (scalar path, integer keys).
	hash map[int64]int
	// hashStr is the scalar-path build table for string join keys: the
	// pre-dictionary engine hashed the strings themselves.
	hashStr map[string]int
	// vhash is the BuildHash result on the vectorized path.
	vhash *exec.RadixTable
	// aggState accumulates partial aggregates (scalar path).
	aggState map[int64]float64
	// vagg accumulates partial aggregates on the vectorized path.
	vagg *exec.SumTable
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
	ls := &liveRun{
		live:    lv,
		scalar:  lv.scalar,
		pool:    lv.pool,
		scratch: &lv.scratch,
		morsels: lv.morsels,
		states:  make(map[int][]*liveOpState),
		result: &LiveResult{
			Durations:   make(map[int]float64),
			OpDurations: make(map[plan.OpType]float64),
			OpMemory:    make(map[plan.OpType]float64),
			OutputRows:  make(map[int]int),
		},
		opCounts:        make(map[plan.OpType]int),
		liveInstruments: lv.instr,
	}
	if ls.scalar {
		ls.morsels = 1
	}
	if ls.morsels > 1 && lv.cfg.Threads > 1 {
		// Helper tokens: a splitting work order may borrow up to
		// Threads-1 extra goroutines beyond the one it runs on.
		ls.morselGate = make(chan struct{}, lv.cfg.Threads-1)
		for i := 0; i < lv.cfg.Threads-1; i++ {
			ls.morselGate <- struct{}{}
		}
	}
	est, _ := lv.estimators.Get().(*costmodel.Estimator)
	if est == nil {
		est = newEstimator(lv.cfg.Metrics)
	}
	sim := newSim(SimConfig{Threads: lv.cfg.Threads, Seed: 1, Metrics: lv.cfg.Metrics, Trace: lv.cfg.Trace}, est, lv.simInstr)
	sim.schedMu = &lv.schedMu
	sim.executeHook = ls.execute
	// The morsel driver reports achieved parallelism into the sim's
	// estimator so O-DUR predictions stay in wall-clock units (see
	// costmodel.ObserveParallelism).
	ls.estimator = sim.State().Estimator
	// Recycle a query's pooled blocks the moment it completes; the live
	// engine owns this sim, so the observer slot is free. Schedulers
	// that observe lifecycles themselves are forwarded to.
	if o, ok := sched.(QueryObserver); ok {
		ls.observer = o
	}
	sim.SetObserver(ls)
	scaled := make([]Arrival, len(arrivals))
	for i, a := range arrivals {
		scaled[i] = Arrival{Plan: a.Plan, At: a.At * lv.cfg.TimeScale}
	}
	res, err := sim.Run(sched, scaled)
	// The sim (and the liveRun holding ls.estimator) is dead either
	// way, so its estimator goes back to the pool for the next run.
	sim.State().Estimator.Reset()
	lv.estimators.Put(sim.State().Estimator)
	if err != nil {
		return nil, err
	}
	for id, d := range res.Durations {
		ls.result.Durations[id] = d
	}
	ls.result.Makespan = res.Makespan
	ls.result.WorkOrders = res.WorkOrders
	for t, total := range ls.opTotals {
		ls.result.OpDurations[t] = total / float64(ls.opCounts[t])
	}
	for t, total := range ls.memTotals {
		ls.result.OpMemory[t] = total / float64(ls.opCounts[t])
	}
	return ls.result, nil
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
	// scalar selects the per-row reference path over the exec kernels
	// (see Live.scalar).
	scalar bool
	// pool recycles materialized output blocks across work orders; nil
	// (in bare test constructions) degrades to plain allocation.
	pool *exec.BlockPool
	// scratch holds per-worker *exec.Scratch buffers (selection
	// vectors, sort pairs); sync.Pool gives each concurrently executing
	// work order (and each morsel helper) its own. nil (in bare test
	// constructions) degrades to per-call allocation.
	scratch *sync.Pool
	// morsels bounds the per-work-order split fan-out (1 = off).
	morsels int
	// morselGate holds one token per borrowable helper thread; nil when
	// morsels are off, which the acquire path treats as "no helpers".
	morselGate chan struct{}
	// estimator receives achieved morsel parallelism (estMu-guarded:
	// worker goroutines report concurrently). nil in bare tests.
	estimator *costmodel.Estimator
	estMu     sync.Mutex
	mu        sync.Mutex
	states    map[int][]*liveOpState
	result    *LiveResult
	opTotals  map[plan.OpType]float64
	memTotals map[plan.OpType]float64
	opCounts  map[plan.OpType]int
	// liveInstruments is the owning Live's handle set (all-nil in bare
	// test constructions).
	liveInstruments
	// observer forwards query completions to the run's scheduler when
	// it observes lifecycles (e.g. to join flight-recorder entries to
	// outcomes); the live engine itself owns the sim's observer slot.
	observer QueryObserver
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
func (lr *liveRun) getScratch() *exec.Scratch {
	if lr.scratch != nil {
		if s, ok := lr.scratch.Get().(*exec.Scratch); ok {
			return s
		}
	}
	return &exec.Scratch{}
}

func (lr *liveRun) putScratch(s *exec.Scratch) {
	if lr.scratch != nil {
		lr.scratch.Put(s)
	}
}

// getAggTable draws a recycled grouped-aggregate table from the owning
// Live (bare test runs allocate fresh ones).
func (lr *liveRun) getAggTable() *exec.SumTable {
	if lr.live != nil {
		if t, ok := lr.live.aggTables.Get().(*exec.SumTable); ok {
			return t
		}
	}
	return exec.NewSumTable(0)
}

// getOpStates draws a recycled per-query op-state slice from the owning
// Live, re-using the structs left in it by completed queries; bare test
// runs allocate fresh ones. Called with lr.mu held.
func (lr *liveRun) getOpStates(n int) []*liveOpState {
	var sts []*liveOpState
	if lr.live != nil {
		lr.live.opMu.Lock()
		if k := len(lr.live.opFree); k > 0 {
			sts = lr.live.opFree[k-1][:0]
			lr.live.opFree = lr.live.opFree[:k-1]
		}
		lr.live.opMu.Unlock()
	}
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
	if lr.live == nil {
		return
	}
	for _, st := range sts {
		st.outputs = st.outputs[:0]
		st.pooled = st.pooled[:0]
		st.hash = nil
		st.hashStr = nil
		st.vhash = nil
		st.aggState = nil
		st.vagg = nil
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
		vagg := st.vagg
		st.vagg = nil
		st.mu.Unlock()
		for _, b := range pooled {
			lr.pool.Put(b)
		}
		st.pooled = pooled[:0] // keep the slice capacity for the next query
		if vagg != nil && lr.live != nil {
			vagg.Reset()
			lr.live.aggTables.Put(vagg)
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
	if lr.opTotals == nil {
		lr.opTotals = make(map[plan.OpType]float64)
	}
	lr.mu.Unlock()

	st := sts[os.Op.ID]
	start := time.Now()
	rows := lr.runWorkOrder(q, os.Op, st, wo.BlockIndex)
	elapsed := time.Since(start).Seconds()
	lr.executed.Inc()
	lr.wallLatency[os.Op.Type].Observe(elapsed)

	lr.mu.Lock()
	if lr.memTotals == nil {
		lr.memTotals = make(map[plan.OpType]float64)
	}
	lr.opTotals[os.Op.Type] += elapsed
	lr.memTotals[os.Op.Type] += float64(rows) / 1000
	lr.opCounts[os.Op.Type]++
	if len(os.Op.Parents()) == 0 {
		lr.result.OutputRows[q.ID] += rows
	}
	lr.mu.Unlock()
	return elapsed, float64(rows) / 1000
}

// inputBlock fetches the wo-th input block of op: from the base relation
// for leaves, or from the child's outputs otherwise.
func (lr *liveRun) inputBlock(q *QueryState, op *plan.Operator, st *liveOpState, idx int) *storage.Block {
	if len(op.Children()) == 0 {
		if len(op.InputRelations) == 0 {
			return nil
		}
		rel, ok := lr.live.catalog.Relation(op.InputRelations[0])
		if !ok || len(rel.Blocks) == 0 {
			return nil
		}
		return rel.Blocks[idx%len(rel.Blocks)]
	}
	// Non-leaf: draw from the "main" (last, pipelining) child's outputs.
	child := op.Children()[len(op.Children())-1].Child
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

// intKeyColumn is keyColumn restricted to integer columns. The
// selectivity fallback in selectPredicate realizes its estimate as an
// integer range filter, which has no meaning over dictionary codes —
// restricting it keeps the fallback's behavior identical to the
// pre-dictionary engine (pass through blocks with no int column).
func intKeyColumn(op *plan.Operator, b *storage.Block) int {
	for _, c := range op.Columns {
		if i := b.Schema.ColumnIndex(c); i >= 0 && b.Schema.Columns[i].Type == storage.Int64Col {
			return i
		}
	}
	for i, c := range b.Schema.Columns {
		if c.Type == storage.Int64Col {
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

// runWorkOrder executes one (operator, block) unit and returns the rows
// it produced.
func (lr *liveRun) runWorkOrder(q *QueryState, op *plan.Operator, st *liveOpState, idx int) int {
	// FinalizeAggregate consumes its child's aggregate state, not its
	// output blocks, so it bypasses the block-input path.
	if op.Type == plan.FinalizeAggregate {
		lr.kernels.finalize.Inc()
		return lr.runFinalize(q, op, st)
	}
	// Count the work order against its kernel before fetching input, so
	// the per-kernel counters sum to the engine's work-order total even
	// when a work order draws an empty block.
	switch op.Type {
	case plan.Select:
		lr.kernels.sel.Inc()
	case plan.BuildHash:
		lr.kernels.build.Inc()
	case plan.ProbeHash, plan.IndexNestedLoopJoin, plan.MergeJoin, plan.NestedLoopJoin:
		lr.kernels.probe.Inc()
	case plan.Aggregate, plan.Distinct, plan.Window:
		lr.kernels.aggregate.Inc()
	case plan.Sort, plan.TopK:
		lr.kernels.sortk.Inc()
	default:
		lr.kernels.passthrough.Inc()
	}
	in := lr.inputBlock(q, op, st, idx)
	if in == nil || in.NumRows() == 0 {
		return 0
	}
	switch op.Type {
	case plan.Select:
		return lr.runSelect(q, op, st, in)
	case plan.BuildHash:
		return lr.runBuild(op, st, in)
	case plan.ProbeHash, plan.IndexNestedLoopJoin, plan.MergeJoin, plan.NestedLoopJoin:
		return lr.runProbe(q, op, st, in)
	case plan.Aggregate, plan.Distinct, plan.Window:
		return lr.runAggregate(op, st, in)
	case plan.Sort, plan.TopK:
		return lr.runSort(q, op, st, in)
	default:
		// Pass-through operators reference the input block unchanged:
		// columnar blocks are immutable here.
		st.mu.Lock()
		st.outputs = append(st.outputs, in)
		st.mu.Unlock()
		return in.NumRows()
	}
}

// selectPredicate resolves the effective predicate and column of a
// Select work order over one block, shared by the scalar and vectorized
// paths.
func selectPredicate(op *plan.Operator, in *storage.Block) (plan.Predicate, int) {
	pred := op.Pred
	col := -1
	if pred.Column != "" {
		col = in.Schema.ColumnIndex(pred.Column)
	}
	if col < 0 || pred.Kind == plan.PredNone {
		// Benchmark templates carry selectivities rather than literal
		// predicates; realize the estimate as a range filter over the
		// key column so live cardinalities track the optimizer's.
		col = intKeyColumn(op, in)
		pred = plan.Predicate{Kind: plan.PredIntLess, Operand: int64(op.Selectivity * 1000)}
	}
	return pred, col
}

func (lr *liveRun) runSelect(q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	pred, col := selectPredicate(op, in)
	if col < 0 {
		st.mu.Lock()
		st.outputs = append(st.outputs, in)
		st.mu.Unlock()
		return in.NumRows()
	}
	if lr.scalar {
		return lr.runSelectScalar(pred, col, st, in)
	}
	return lr.runSelectVector(q, op, pred, col, st, in)
}

// runSelectScalar is the per-row reference path: loop-invariant work is
// hoisted (the row count is read once, the predicate kind, column
// vector, and — for coded strings — the dictionary are dispatched once
// per block instead of per row through evalPred), every work order
// allocates its kept-row list and a fresh materialized block, and
// string predicates over coded columns decode and compare the string
// per row, so the reference never depends on dictionary codes.
func (lr *liveRun) runSelectScalar(pred plan.Predicate, col int, st *liveOpState, in *storage.Block) int {
	n := in.NumRows()
	kept := make([]int, 0, n)
	vec := &in.Vectors[col]
	switch pred.Kind {
	case plan.PredIntLess:
		if vals := vec.Ints; vals != nil {
			for i, v := range vals[:n] {
				if v < pred.Operand {
					kept = append(kept, i)
				}
			}
		}
	case plan.PredIntGreaterEq:
		if vals := vec.Ints; vals != nil {
			for i, v := range vals[:n] {
				if v >= pred.Operand {
					kept = append(kept, i)
				}
			}
		}
	case plan.PredIntEq:
		if vals := vec.Ints; vals != nil {
			for i, v := range vals[:n] {
				if v == pred.Operand {
					kept = append(kept, i)
				}
			}
		}
	case plan.PredFloatLess:
		if vals := vec.Floats; vals != nil {
			for i, v := range vals[:n] {
				if v < pred.FOperand {
					kept = append(kept, i)
				}
			}
		}
	case plan.PredStringEq:
		if vals := vec.Strings; vals != nil {
			for i, v := range vals[:n] {
				if v == pred.SOperand {
					kept = append(kept, i)
				}
			}
		} else if codes := vec.Codes; codes != nil && vec.Dict != nil {
			dict := vec.Dict
			for i, c := range codes[:n] {
				if dict.Value(c) == pred.SOperand {
					kept = append(kept, i)
				}
			}
		}
	default:
		for i := 0; i < n; i++ {
			kept = append(kept, i)
		}
	}
	out := projectRows(in, kept)
	st.mu.Lock()
	st.outputs = append(st.outputs, out)
	st.mu.Unlock()
	return len(kept)
}

// evalPred is the original per-row predicate evaluation, kept as the
// reference semantics for the scalar/vector differential tests.
func evalPred(p plan.Predicate, v *storage.ColumnVector, i int) bool {
	switch p.Kind {
	case plan.PredIntLess:
		return v.Ints != nil && v.Ints[i] < p.Operand
	case plan.PredIntGreaterEq:
		return v.Ints != nil && v.Ints[i] >= p.Operand
	case plan.PredIntEq:
		return v.Ints != nil && v.Ints[i] == p.Operand
	case plan.PredFloatLess:
		return v.Floats != nil && v.Floats[i] < p.FOperand
	case plan.PredStringEq:
		if v.Strings != nil {
			return v.Strings[i] == p.SOperand
		}
		return v.Codes != nil && v.Dict != nil && v.Dict.Value(v.Codes[i]) == p.SOperand
	default:
		return true
	}
}

// projectRows materializes the kept row indices of a block with fresh
// allocations — the scalar path's materialization. A dictionary-coded
// string column stays coded (the dictionary is relation-wide state, not
// something a row projection re-derives).
func projectRows(in *storage.Block, rows []int) *storage.Block {
	out := &storage.Block{
		Header:  storage.BlockHeader{BlockID: in.Header.BlockID, Relation: in.Header.Relation, Rows: len(rows)},
		Schema:  in.Schema,
		Vectors: make([]storage.ColumnVector, len(in.Vectors)),
	}
	for ci := range in.Vectors {
		src := &in.Vectors[ci]
		dst := &out.Vectors[ci]
		switch {
		case src.Ints != nil:
			dst.Ints = make([]int64, len(rows))
			for i, r := range rows {
				dst.Ints[i] = src.Ints[r]
			}
		case src.Floats != nil:
			dst.Floats = make([]float64, len(rows))
			for i, r := range rows {
				dst.Floats[i] = src.Floats[r]
			}
		case src.Codes != nil:
			dst.Codes = make([]int64, len(rows))
			for i, r := range rows {
				dst.Codes[i] = src.Codes[r]
			}
			dst.Dict = src.Dict
		case src.Strings != nil:
			dst.Strings = make([]string, len(rows))
			for i, r := range rows {
				dst.Strings[i] = src.Strings[r]
			}
		}
	}
	return out
}

func (lr *liveRun) runBuild(op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	if col < 0 {
		return 0
	}
	keys, dict := keyVec(in, col)
	if keys == nil {
		return 0
	}
	st.mu.Lock()
	if lr.scalar {
		if dict == nil {
			if st.hash == nil {
				st.hash = make(map[int64]int, len(keys))
			}
			for _, k := range keys {
				st.hash[k]++
			}
		} else {
			// Scalar string build: the map is keyed by the decoded
			// strings, so the reference never depends on dictionary codes.
			if st.hashStr == nil {
				st.hashStr = make(map[string]int, len(keys))
			}
			for _, c := range keys {
				st.hashStr[dict.Value(c)]++
			}
		}
	} else {
		if st.vhash == nil {
			st.vhash = exec.NewRadixTable(len(keys))
		}
		st.vhash.AddBatch(keys)
		if dict != nil {
			st.vhash.SetDict(dict)
		}
	}
	st.outputs = append(st.outputs, in)
	st.mu.Unlock()
	return len(keys)
}

// buildChildState finds a probe operator's build-side input: the
// explicit BuildHash child when the plan has one, else the first
// blocking child. Preferring BuildHash matters for multi-child probes —
// a plan can feed another blocking child (say a Sort on the probe side)
// into the join ahead of the BuildHash in the child list, and probing
// that child's never-built table would silently match nothing.
func (lr *liveRun) buildChildState(q *QueryState, op *plan.Operator) *liveOpState {
	var pick *plan.Operator
	for _, e := range op.Children() {
		if e.Child.Type == plan.BuildHash {
			pick = e.Child
			break
		}
	}
	if pick == nil {
		for _, e := range op.Children() {
			if !e.NonPipelineBreaking {
				pick = e.Child
				break
			}
		}
	}
	if pick == nil {
		return nil
	}
	return lr.opState(q.ID, pick.ID)
}

func (lr *liveRun) runProbe(q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	build := lr.buildChildState(q, op)
	col := keyColumn(op, in)
	if col < 0 {
		return 0
	}
	if keys, _ := keyVec(in, col); keys == nil {
		return 0
	}
	if lr.scalar {
		return lr.runProbeScalar(build, st, in, col)
	}
	return lr.runProbeVector(q, op, build, st, in, col)
}

func (lr *liveRun) runProbeScalar(build, st *liveOpState, in *storage.Block, col int) int {
	matched := make([]int, 0, in.NumRows())
	keys, dict := keyVec(in, col)
	if build != nil {
		// Probe under the build-side lock. The scheduler only activates
		// a probe after its build input completed (the edge is pipeline-
		// breaking), so the lock is uncontended in engine runs — but a
		// bare read of the map would race if build and probe work orders
		// ever overlapped, and the lock makes the executor safe under
		// any interleaving, not just the scheduled one.
		build.mu.Lock()
		if dict == nil {
			if build.hash != nil {
				for i, k := range keys {
					if build.hash[k] > 0 {
						matched = append(matched, i)
					}
				}
			}
		} else if build.hashStr != nil {
			// Scalar string join: the code vector and dictionary are
			// hoisted out of the loop, and each row decodes its key and
			// does a string-keyed map lookup.
			for i, c := range keys {
				if build.hashStr[dict.Value(c)] > 0 {
					matched = append(matched, i)
				}
			}
		}
		build.mu.Unlock()
	}
	out := projectRows(in, matched)
	st.mu.Lock()
	st.outputs = append(st.outputs, out)
	st.mu.Unlock()
	return len(matched)
}

func (lr *liveRun) runAggregate(op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	var keys []int64
	if col >= 0 {
		keys, _ = keyVec(in, col)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if lr.scalar {
		if st.aggState == nil {
			st.aggState = make(map[int64]float64)
		}
		if keys == nil {
			st.aggState[0] += float64(in.NumRows())
			return 1
		}
		for _, k := range keys {
			st.aggState[k]++
		}
		return len(st.aggState)
	}
	if st.vagg == nil {
		st.vagg = lr.getAggTable()
	}
	if keys == nil {
		st.vagg.Add(0, float64(in.NumRows()))
		return 1
	}
	st.vagg.AddOnes(keys)
	return st.vagg.Len()
}

// aggOutSchema is the fixed output schema of FinalizeAggregate, hoisted
// to package scope so finalize work orders don't rebuild (and
// re-allocate) it per call — pool recycling also needs the pointer
// stable across runs.
var aggOutSchema = storage.MustSchema(
	storage.Column{Name: "group", Type: storage.Int64Col},
	storage.Column{Name: "value", Type: storage.Float64Col},
)

func (lr *liveRun) runFinalize(q *QueryState, op *plan.Operator, st *liveOpState) int {
	child := op.Children()[0].Child
	cs := lr.opState(q.ID, child.ID)
	cs.mu.Lock()
	if cs.vagg != nil {
		// Vector path: export straight into a pooled block's vectors, so
		// steady-state finalize reuses the previous query's backing arrays.
		groups := cs.vagg.Len()
		out := lr.pool.Get(aggOutSchema, groups)
		keys, vals := cs.vagg.Export(out.Vectors[0].Ints[:0], out.Vectors[1].Floats[:0])
		cs.mu.Unlock()
		out.Vectors[0].Ints, out.Vectors[1].Floats = keys, vals
		out.Header.Relation = "agg:" + q.Plan.QueryName
		lr.emitPooled(st, out)
		return groups
	}
	keys := make([]int64, 0, len(cs.aggState))
	vals := make([]float64, 0, len(cs.aggState))
	for k, v := range cs.aggState {
		keys = append(keys, k)
		vals = append(vals, v)
	}
	cs.mu.Unlock()
	groups := len(keys)
	out := &storage.Block{
		Header:  storage.BlockHeader{Relation: "agg:" + q.Plan.QueryName, Rows: groups},
		Schema:  aggOutSchema,
		Vectors: []storage.ColumnVector{{Ints: keys}, {Floats: vals}},
	}
	st.mu.Lock()
	st.outputs = append(st.outputs, out)
	st.mu.Unlock()
	return groups
}

func (lr *liveRun) runSort(q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	var keys []int64
	var dict *storage.Dictionary
	if col >= 0 {
		keys, dict = keyVec(in, col)
	}
	if keys == nil {
		st.mu.Lock()
		st.outputs = append(st.outputs, in)
		st.mu.Unlock()
		return in.NumRows()
	}
	if lr.scalar {
		return lr.runSortScalar(st, in, keys, dict)
	}
	return lr.runSortVector(q, op, st, in, keys)
}

func (lr *liveRun) runSortScalar(st *liveOpState, in *storage.Block, keys []int64, dict *storage.Dictionary) int {
	order := make([]int, in.NumRows())
	for i := range order {
		order[i] = i
	}
	// Ties order by row index so the output is a deterministic total
	// order — the same contract the vectorized sort kernel keeps, which
	// is what lets the differential tests compare exact output order.
	if dict == nil {
		sort.Slice(order, func(a, b int) bool {
			ka, kb := keys[order[a]], keys[order[b]]
			if ka != kb {
				return ka < kb
			}
			return order[a] < order[b]
		})
	} else {
		// Scalar string sort: the code vector and dictionary are hoisted
		// out of the comparator, and each comparison decodes and compares
		// the strings. The dictionary is sorted, so this agrees with code
		// order and the differential tests can compare exact output order.
		sort.Slice(order, func(a, b int) bool {
			sa, sb := dict.Value(keys[order[a]]), dict.Value(keys[order[b]])
			if sa != sb {
				return sa < sb
			}
			return order[a] < order[b]
		})
	}
	out := projectRows(in, order)
	st.mu.Lock()
	st.outputs = append(st.outputs, out)
	st.mu.Unlock()
	return in.NumRows()
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
