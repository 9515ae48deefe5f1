package engine

import (
	"testing"

	"repro/internal/plan"
)

func TestSchedulableRootsRespectBlocking(t *testing.T) {
	p := joinPlan("j", 2, 3)
	q := newQueryState(0, p, 0)
	roots := q.SchedulableRoots()
	// Only the two scans are schedulable initially.
	if len(roots) != 2 {
		t.Fatalf("initial roots %d, want 2 (the scans)", len(roots))
	}
	for _, r := range roots {
		if r.Type != plan.TableScan {
			t.Fatalf("unexpected initial root %v", r.Type)
		}
	}
	// Complete the left scan and the build: probe still blocked until
	// the build is done AND the right scan is done or probe pipelines
	// from it. Mark left scan done.
	q.OpStates[0].Done = true
	roots = q.SchedulableRoots()
	// Now BuildHash (child of left scan) is schedulable.
	foundBuild := false
	for _, r := range roots {
		if r.Type == plan.BuildHash {
			foundBuild = true
		}
		if r.Type == plan.ProbeHash {
			t.Fatal("probe schedulable before build completed")
		}
	}
	if !foundBuild {
		t.Fatal("build not schedulable after its input finished")
	}
}

func TestPipelineChainStopsAtBreaker(t *testing.T) {
	p := chainPlan("c", 4) // scan, select, select, aggregate, finalize
	q := newQueryState(0, p, 0)
	chain := appendPipelineChain(nil, q, p.Ops[0], 10)
	// scan -> select -> select, stopping at the aggregate breaker.
	if len(chain) != 3 {
		t.Fatalf("chain %v, want length 3", chain)
	}
	// Depth 1 truncates.
	chain = appendPipelineChain(nil, q, p.Ops[0], 1)
	if len(chain) != 2 {
		t.Fatalf("depth-1 chain %v, want length 2", chain)
	}
}

func TestPipelineChainRequiresSideInputs(t *testing.T) {
	p := joinPlan("j", 2, 3)
	q := newQueryState(0, p, 0)
	// From the right scan, the probe's build-side input is not done, so
	// the chain must not extend into the probe.
	rightScan := p.Ops[1]
	chain := appendPipelineChain(nil, q, rightScan, 5)
	if len(chain) != 1 {
		t.Fatalf("chain through probe with missing build: %v", chain)
	}
	// Once the build is done, the chain may extend.
	q.OpStates[2].Done = true // build
	chain = appendPipelineChain(nil, q, rightScan, 5)
	if len(chain) < 2 {
		t.Fatalf("chain should extend into probe once build is done: %v", chain)
	}
}

func TestAvailableWOsTracksPipelinedProgress(t *testing.T) {
	p := chainPlan("c", 10)
	q := newQueryState(0, p, 0)
	scan, sel := q.OpStates[0], q.OpStates[1]
	scan.Active = true
	sel.Active = true
	sel.Pipelined = true
	if got := sel.availableWOs(q); got != 0 {
		t.Fatalf("pipelined op with idle producer has %d available, want 0", got)
	}
	scan.Completed = 5
	if got := sel.availableWOs(q); got != 5 {
		t.Fatalf("half-done producer exposes %d, want 5", got)
	}
	scan.Completed = 10
	scan.Done = true
	if got := sel.availableWOs(q); got != 10 {
		t.Fatalf("done producer exposes %d, want 10", got)
	}
	sel.Dispatched = 7
	if got := sel.availableWOs(q); got != 3 {
		t.Fatalf("after dispatching 7, %d available, want 3", got)
	}
}

func TestCriticalPathBlocks(t *testing.T) {
	p := joinPlan("j", 2, 8)
	q := newQueryState(0, p, 0)
	// Longest path: rightScan(8) + probe(8) + agg(8) + fin(1) = 25.
	if got := q.CriticalPathBlocks(); got != 25 {
		t.Fatalf("critical path %d, want 25", got)
	}
}

func TestLocalityVector(t *testing.T) {
	st := &State{Threads: []ThreadInfo{
		{ID: 0, LastQuery: 3},
		{ID: 1, LastQuery: -1},
		{ID: 2, LastQuery: 3},
	}}
	q := &QueryState{ID: 3}
	v := st.LocalityVector(q)
	want := []float64{1, 0, 1}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("locality %v, want %v", v, want)
		}
	}
}

func TestApplyRejectsIllegalRoot(t *testing.T) {
	// A decision naming a root whose inputs are incomplete must be
	// ignored rather than corrupting availability accounting.
	sim := NewSim(SimConfig{Threads: 2, Seed: 1})
	res, err := sim.Run(illegalRootSched{}, []Arrival{{Plan: chainPlan("c", 2), At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 1 {
		t.Fatal("query did not complete")
	}
}

// illegalRootSched first tries to activate a non-ready operator, then
// falls back to correct behaviour.
type illegalRootSched struct{}

func (illegalRootSched) Name() string { return "illegal" }
func (illegalRootSched) OnEvent(st *State, _ Event) []Decision {
	var ds []Decision
	for _, q := range st.Queries {
		// Illegal: the sink's inputs are not done at the start.
		ds = append(ds, Decision{QueryID: q.ID, RootOpID: q.Plan.Sink().ID, PipelineDepth: 0, Threads: 2})
		for _, root := range q.SchedulableRoots() {
			ds = append(ds, Decision{QueryID: q.ID, RootOpID: root.ID, PipelineDepth: 0, Threads: 2})
		}
	}
	return ds
}

func TestDecisionThreadsClampedToPool(t *testing.T) {
	sim := NewSim(SimConfig{Threads: 3, Seed: 1})
	huge := grantSched{grant: 1000}
	res, err := sim.Run(&huge, []Arrival{{Plan: chainPlan("c", 4), At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 1 {
		t.Fatal("query did not complete with oversized grant")
	}
}
