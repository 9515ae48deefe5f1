package engine

import (
	"math/rand"
	"testing"
)

// invariantSched wraps a scheduler and asserts engine invariants at
// every scheduling event (i.e. after every dispatch round).
type invariantSched struct {
	t     *testing.T
	sim   *Sim
	inner Scheduler
}

func (s invariantSched) Name() string { return "invariants" }

func (s invariantSched) OnEvent(st *State, ev Event) []Decision {
	for _, q := range st.Queries {
		for _, os := range q.OpStates {
			if os.Dispatched > os.TotalWOs {
				s.t.Fatalf("op %d of q%d dispatched %d of %d work orders", os.Op.ID, q.ID, os.Dispatched, os.TotalWOs)
			}
			if os.Completed > os.Dispatched {
				s.t.Fatalf("op %d of q%d completed %d but dispatched %d", os.Op.ID, q.ID, os.Completed, os.Dispatched)
			}
			if os.Done && os.Completed != os.TotalWOs {
				s.t.Fatalf("op %d of q%d done with %d of %d complete", os.Op.ID, q.ID, os.Completed, os.TotalWOs)
			}
		}
	}
	return s.inner.OnEvent(st, ev)
}

// checkConservation asserts, after a dispatch round, that free workers
// imply every query is either at its grant or has nothing runnable.
func (s invariantSched) checkConservation() {
	st := s.sim.state
	if st.FreeThreads() == 0 {
		return
	}
	for _, q := range st.Queries {
		if s.sim.runningWOs[q.ID] >= q.AssignedThreads {
			continue
		}
		avail := 0
		for _, opID := range q.activationOrder {
			avail += q.OpStates[opID].availableWOs(q)
		}
		if avail > 0 {
			s.t.Fatalf("t=%v: q%d has %d available work orders, %d/%d running, and %d idle threads",
				st.Now, q.ID, avail, s.sim.runningWOs[q.ID], q.AssignedThreads, st.FreeThreads())
		}
	}
}

func TestEngineInvariantsUnderRandomWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var arrivals []Arrival
	at := 0.0
	for i := 0; i < 20; i++ {
		at += rng.ExpFloat64() * 1.5
		var p = chainPlan("c", 2+rng.Intn(8))
		if i%3 == 1 {
			p = joinPlan("j", 1+rng.Intn(4), 2+rng.Intn(6))
		}
		arrivals = append(arrivals, Arrival{Plan: p, At: at})
	}
	for _, depth := range []int{0, 1, 4} {
		sim := NewSim(SimConfig{Threads: 5, Seed: 99, NoiseFrac: 0.25})
		checked := invariantSched{t: t, sim: sim, inner: greedyTestSched{depth: depth}}
		sim.afterDispatch = checked.checkConservation
		res, err := sim.Run(checked, cloneArrs(arrivals))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Durations) != 20 {
			t.Fatalf("depth %d: completed %d of 20", depth, len(res.Durations))
		}
		for id, d := range res.Durations {
			if d < 0 {
				t.Fatalf("query %d negative duration %v", id, d)
			}
		}
		// Total work orders must equal the sum of plan blocks.
		want := 0
		for _, a := range arrivals {
			for _, op := range a.Plan.Ops {
				want += op.EstBlocks
			}
		}
		if res.WorkOrders != want {
			t.Fatalf("depth %d: executed %d work orders, plans total %d", depth, res.WorkOrders, want)
		}
	}
}

func TestEventTraceMonotonic(t *testing.T) {
	sim := NewSim(SimConfig{Threads: 3, Seed: 5, NoiseFrac: 0.2})
	var arrivals []Arrival
	for i := 0; i < 8; i++ {
		arrivals = append(arrivals, Arrival{Plan: chainPlan("c", 4), At: float64(i) / 2})
	}
	res, err := sim.Run(greedyTestSched{depth: 2}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, tp := range res.EventTrace {
		if tp.Time < prev {
			t.Fatalf("event trace not monotone: %v after %v", tp.Time, prev)
		}
		prev = tp.Time
		if tp.Queries < 0 || tp.Queries > 8 {
			t.Fatalf("implausible live-query count %d", tp.Queries)
		}
	}
	if len(res.EventTrace) != res.SchedInvocations {
		t.Fatalf("trace has %d points for %d invocations", len(res.EventTrace), res.SchedInvocations)
	}
}

func cloneArrs(in []Arrival) []Arrival {
	out := make([]Arrival, len(in))
	for i, a := range in {
		out[i] = Arrival{Plan: a.Plan.Clone(), At: a.At}
	}
	return out
}
