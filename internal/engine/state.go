package engine

import (
	"repro/internal/costmodel"
	"repro/internal/plan"
)

// OpState is the run-time state of one operator within a running query.
type OpState struct {
	Op *plan.Operator
	// TotalWOs is the number of work orders the operator will execute.
	TotalWOs int
	// Dispatched counts work orders handed to worker threads.
	Dispatched int
	// Completed counts finished work orders.
	Completed int
	// Active is true once a scheduling decision activated the operator
	// (as an execution root or as a pipelined consumer).
	Active bool
	// Pipelined is true when the operator was activated as part of a
	// pipeline rather than standalone.
	Pipelined bool
	// Done is true once all work orders completed.
	Done bool
}

// Remaining is the O-WO feature: work orders not yet completed.
func (s *OpState) Remaining() int { return s.TotalWOs - s.Completed }

// availableWOs returns how many work orders may be dispatched right now,
// honoring pipelined availability: a pipelined operator can only consume
// as far as its producers have progressed.
func (s *OpState) availableWOs(q *QueryState) int {
	if !s.Active || s.Done {
		return 0
	}
	limit := s.TotalWOs
	if s.Pipelined {
		// Tie availability to the slowest input's progress.
		for _, e := range s.Op.Children() {
			cs := q.OpStates[e.Child.ID]
			if cs.Done {
				continue
			}
			frac := float64(cs.Completed) / float64(cs.TotalWOs)
			if l := int(frac * float64(s.TotalWOs)); l < limit {
				limit = l
			}
		}
	}
	if limit < s.Dispatched {
		return 0
	}
	return limit - s.Dispatched
}

// QueryState is the run-time state of one query instance.
type QueryState struct {
	ID      int
	Plan    *plan.Plan
	Arrival float64
	// Completion is the engine time when the sink finished (0 while
	// running; queries always complete at time > 0).
	Completion float64
	// OpStates is indexed by operator ID.
	OpStates []*OpState
	// AssignedThreads is the current parallelism grant (Q-ATH).
	AssignedThreads int
	// activationOrder records the order operators were activated, used by
	// the dispatcher to favor older pipelines.
	activationOrder []int
}

// Done reports whether the query's sink has finished.
func (q *QueryState) Done() bool {
	return q.OpStates[q.Plan.Sink().ID].Done
}

// sideInputsReady reports whether every input of op other than via is
// complete — the precondition for extending a pipeline through op.
func (q *QueryState) sideInputsReady(op, via *plan.Operator) bool {
	for _, e := range op.Children() {
		if e.Child == via {
			continue
		}
		if !q.OpStates[e.Child.ID].Done {
			return false
		}
	}
	return true
}

// SchedulableRoots returns the operators that may be chosen as execution
// roots now: not done, not already active, and with every input operator
// fully executed.
func (q *QueryState) SchedulableRoots() []*plan.Operator {
	return q.AppendSchedulableRoots(nil)
}

// AppendSchedulableRoots is SchedulableRoots appending into dst — the
// allocation-free form used on the scheduler's per-event hot path.
func (q *QueryState) AppendSchedulableRoots(dst []*plan.Operator) []*plan.Operator {
	roots := dst
	for _, s := range q.OpStates {
		if s.Done || s.Active {
			continue
		}
		ready := true
		for _, e := range s.Op.Children() {
			if !q.OpStates[e.Child.ID].Done {
				ready = false
				break
			}
		}
		if ready {
			roots = append(roots, s.Op)
		}
	}
	return roots
}

// RemainingWork sums remaining work orders over all operators.
func (q *QueryState) RemainingWork() int {
	n := 0
	for _, s := range q.OpStates {
		n += s.Remaining()
	}
	return n
}

// CriticalPathBlocks returns the largest remaining per-operator block
// count along any root-to-sink path — the critical-path heuristic's
// priority signal.
func (q *QueryState) CriticalPathBlocks() int {
	memo := make([]int, len(q.OpStates))
	for i := range memo {
		memo[i] = -1
	}
	var walk func(op *plan.Operator) int
	walk = func(op *plan.Operator) int {
		if memo[op.ID] >= 0 {
			return memo[op.ID]
		}
		best := 0
		for _, e := range op.Children() {
			if d := walk(e.Child); d > best {
				best = d
			}
		}
		memo[op.ID] = best + q.OpStates[op.ID].Remaining()
		return memo[op.ID]
	}
	return walk(q.Plan.Sink())
}

// ThreadInfo is per-worker state visible to the scheduler (Q-LOC).
type ThreadInfo struct {
	ID int
	// Busy is true while the thread executes a work order.
	Busy bool
	// LastQuery is the query the thread most recently executed work for
	// (-1 when none), driving the thread-locality feature and discount.
	LastQuery int
}

// State is the scheduler-visible engine state at a scheduling event.
type State struct {
	// Now is the current engine time.
	Now float64
	// Queries holds all incomplete queries, in arrival order.
	Queries []*QueryState
	// Threads is the worker pool.
	Threads []ThreadInfo
	// Estimator provides the O-DUR / O-MEM estimates.
	Estimator *costmodel.Estimator
}

// FreeThreads counts idle workers.
func (st *State) FreeThreads() int {
	n := 0
	for _, t := range st.Threads {
		if !t.Busy {
			n++
		}
	}
	return n
}

// TotalThreads returns the pool size.
func (st *State) TotalThreads() int { return len(st.Threads) }

// Query finds a query by ID, or nil.
func (st *State) Query(id int) *QueryState {
	for _, q := range st.Queries {
		if q.ID == id {
			return q
		}
	}
	return nil
}

// LocalityVector returns, for query q, a 0/1 value per thread indicating
// whether that thread previously executed work for q (the Q-LOC feature).
func (st *State) LocalityVector(q *QueryState) []float64 {
	return st.AppendLocalityVector(make([]float64, 0, len(st.Threads)), q)
}

// AppendLocalityVector appends the Q-LOC vector to dst and returns the
// extended slice — the allocation-free form feature extractors use on
// the per-event hot path.
func (st *State) AppendLocalityVector(dst []float64, q *QueryState) []float64 {
	for _, t := range st.Threads {
		if t.LastQuery == q.ID {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// NewQueryState builds the run-time state of plan p arriving at
// arrival, before any work order has run: the fixture for driving a
// scheduler without an engine.
func NewQueryState(id int, p *plan.Plan, arrival float64) *QueryState {
	return newQueryState(id, p, arrival)
}

// newQueryState instantiates run-time state for a plan arriving now.
func newQueryState(id int, p *plan.Plan, arrival float64) *QueryState {
	q := &QueryState{ID: id, Plan: p, Arrival: arrival, AssignedThreads: 1}
	q.OpStates = make([]*OpState, len(p.Ops))
	for i, op := range p.Ops {
		q.OpStates[i] = &OpState{Op: op, TotalWOs: op.EstBlocks}
	}
	return q
}
