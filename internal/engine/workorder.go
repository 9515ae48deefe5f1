// Package engine implements the work-order-based query execution
// substrate the scheduler drives: the scheduling-event loop, per-query
// run-time state, a discrete-event virtual-time simulator used for
// training and parameter sweeps, and a live executor that runs work
// orders against real storage blocks.
//
// The execution model follows §5.1 of the paper: one scheduler thread, a
// pool of worker threads, each worker executing work orders from the
// operator it was assigned; the pool size may change at run time.
package engine

import "repro/internal/plan"

// WorkOrder is one schedulable unit of work: one operator applied to one
// input block, as in Quickstep (or a morsel in HyPer).
type WorkOrder struct {
	// QueryID identifies the owning query instance.
	QueryID int
	// OpID is the operator's ID within its plan.
	OpID int
	// BlockIndex is which of the operator's input blocks this order
	// covers.
	BlockIndex int
	// Pipelined records whether the order was issued as part of a
	// pipeline (affects cost: pipelined orders skip materialization).
	Pipelined bool
}

// CompletionStats is the execution feedback a worker reports when a work
// order finishes; the execution monitor folds it into the cost model.
type CompletionStats struct {
	WorkOrder WorkOrder
	// Duration is the measured execution time in engine time units.
	Duration float64
	// Memory is the measured memory footprint in abstract units.
	Memory float64
	// ThreadID is the worker that ran the order.
	ThreadID int
	// FinishedAt is the engine time at completion.
	FinishedAt float64
}

// EventKind enumerates the scheduling events of §5.2 that trigger the
// scheduler.
type EventKind int

const (
	// EvQueryArrival fires when a new query enters the system.
	EvQueryArrival EventKind = iota
	// EvOperatorDone fires when a scheduled operator's last work order
	// completes.
	EvOperatorDone
	// EvThreadFree fires when a worker thread finished all assigned work
	// orders and found nothing runnable under current decisions.
	EvThreadFree
	// EvThreadAdded fires when the pool grows.
	EvThreadAdded
	// EvThreadRemoved fires when the pool shrinks.
	EvThreadRemoved
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvQueryArrival:
		return "QueryArrival"
	case EvOperatorDone:
		return "OperatorDone"
	case EvThreadFree:
		return "ThreadFree"
	case EvThreadAdded:
		return "ThreadAdded"
	case EvThreadRemoved:
		return "ThreadRemoved"
	default:
		return "Event(?)"
	}
}

// Event is one scheduling event delivered to the scheduler.
type Event struct {
	Kind    EventKind
	Time    float64
	QueryID int
	OpID    int
}

// Decision is one scheduling decision (§5.3): start execution at a root
// operator, pipeline up to PipelineDepth consumers above it, and set the
// owning query's thread grant.
type Decision struct {
	QueryID int
	// RootOpID is the execution root to activate. A negative value means
	// "no new root" — the decision only adjusts the thread grant.
	RootOpID int
	// PipelineDepth is how many additional operators above the root to
	// run pipelined with it (0 = run the root alone).
	PipelineDepth int
	// Threads is the parallelism grant for the query (≥ 1). Zero leaves
	// the current grant unchanged.
	Threads int
}

// Scheduler is the policy interface every scheduler in this repository
// implements — LSched, Decima, SelfTune, and the heuristics. OnEvent is
// called once per scheduling event with a read view of engine state and
// returns the decisions to apply.
//
// The slice OnEvent returns is valid only until the next call (a
// scheduler may return reused scratch); the engine applies it before
// calling again and serialises calls — OnEvent and QueryObserver
// callbacks alike — across its concurrent runs, so an implementation
// needs no locking of its own and no wrapper has to add any.
type Scheduler interface {
	// Name identifies the policy in experiment output.
	Name() string
	// OnEvent reacts to one scheduling event.
	OnEvent(st *State, ev Event) []Decision
}

// QueryObserver receives query lifecycle callbacks; trainers use it to
// compute rewards without the engine knowing about RL.
type QueryObserver interface {
	QueryCompleted(queryID int, arrival, completion float64)
}

// appendPipelineChain appends to buf the operator IDs of the longest
// chain starting at root and repeatedly stepping to a parent over a
// non-pipeline-breaking edge whose parent's other inputs are all done,
// truncated to depth extra operators. It is the set of operators a
// Decision with PipelineDepth=depth activates together with the root;
// the dispatch hot path reuses one buffer across decisions.
func appendPipelineChain(buf []int, q *QueryState, root *plan.Operator, depth int) []int {
	chain := append(buf, root.ID)
	cur := root
	for len(chain)-1 < depth {
		var next *plan.Operator
		for _, e := range cur.Parents() {
			if !e.NonPipelineBreaking {
				continue
			}
			p := e.Parent
			ps := q.OpStates[p.ID]
			if ps.Done || ps.Active {
				continue
			}
			if !q.sideInputsReady(p, cur) {
				continue
			}
			next = p
			break
		}
		if next == nil {
			break
		}
		chain = append(chain, next.ID)
		cur = next
	}
	return chain
}
