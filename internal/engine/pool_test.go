package engine

import "testing"

func TestPoolGrowthSpeedsUpRun(t *testing.T) {
	arrivals := func() []Arrival {
		return []Arrival{{Plan: chainPlan("c", 32), At: 0}}
	}
	run := func(changes []ThreadChange) float64 {
		sim := NewSim(SimConfig{Threads: 2, Seed: 1, ThreadChanges: changes})
		res, err := sim.Run(greedyTestSched{depth: 0}, arrivals())
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	static := run(nil)
	grown := run([]ThreadChange{{At: 0.5, Delta: 6}})
	if grown >= static {
		t.Fatalf("pool growth did not help: %v vs %v", grown, static)
	}
}

func TestPoolShrinkStillCompletes(t *testing.T) {
	sim := NewSim(SimConfig{Threads: 8, Seed: 2, ThreadChanges: []ThreadChange{{At: 0.5, Delta: -6}}})
	res, err := sim.Run(greedyTestSched{depth: 1}, []Arrival{
		{Plan: chainPlan("a", 16), At: 0},
		{Plan: joinPlan("b", 4, 8), At: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 2 {
		t.Fatalf("completed %d of 2 after shrink", len(res.Durations))
	}
	if got := len(sim.state.Threads); got != 2 {
		t.Fatalf("pool holds %d workers after shrink, want 2", got)
	}
}

func TestPoolShrinkNeverBelowOne(t *testing.T) {
	sim := NewSim(SimConfig{Threads: 2, Seed: 3, ThreadChanges: []ThreadChange{{At: 0.1, Delta: -10}}})
	res, err := sim.Run(greedyTestSched{depth: 0}, []Arrival{{Plan: chainPlan("c", 8), At: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 1 {
		t.Fatal("query did not complete")
	}
	if len(sim.state.Threads) < 1 {
		t.Fatal("pool shrank to zero")
	}
}

func TestPoolChangeFiresSchedulingEvents(t *testing.T) {
	var kinds []EventKind
	spy := eventSpy{inner: greedyTestSched{depth: 0}, kinds: &kinds}
	sim := NewSim(SimConfig{Threads: 2, Seed: 4, ThreadChanges: []ThreadChange{
		{At: 0.5, Delta: 2},
		{At: 1.0, Delta: -1},
	}})
	if _, err := sim.Run(spy, []Arrival{{Plan: chainPlan("c", 16), At: 0}}); err != nil {
		t.Fatal(err)
	}
	var added, removed bool
	for _, k := range kinds {
		if k == EvThreadAdded {
			added = true
		}
		if k == EvThreadRemoved {
			removed = true
		}
	}
	if !added || !removed {
		t.Fatalf("pool events not delivered: added=%v removed=%v (kinds %v)", added, removed, kinds)
	}
}

type eventSpy struct {
	inner Scheduler
	kinds *[]EventKind
}

func (s eventSpy) Name() string { return "spy" }
func (s eventSpy) OnEvent(st *State, ev Event) []Decision {
	*s.kinds = append(*s.kinds, ev.Kind)
	return s.inner.OnEvent(st, ev)
}
