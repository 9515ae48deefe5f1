package lsched

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/workload"
)

// benchState hand-builds a scheduler-visible engine state with nq
// running queries over TPC-H plans — the fixture OnEvent sees at a
// typical scheduling event, without running a simulator.
func benchState(tb testing.TB, nq, threads int) *engine.State {
	tb.Helper()
	pool, err := workload.NewPool(workload.BenchTPCH, 1)
	if err != nil {
		tb.Fatal(err)
	}
	st := &engine.State{Now: 1, Estimator: costmodel.NewEstimator(threads, 1, 1)}
	for i := 0; i < nq; i++ {
		p := pool.Train[i%len(pool.Train)].Clone()
		st.Queries = append(st.Queries, engine.NewQueryState(i, p, 0))
	}
	st.Threads = make([]engine.ThreadInfo, threads)
	for i := range st.Threads {
		st.Threads[i] = engine.ThreadInfo{ID: i, LastQuery: i % nq}
	}
	return st
}

// BenchmarkAgentOnEvent measures one scheduling decision end to end
// (features → encoder → heads → sampling). Sub-benchmarks:
//
//	greedy-fast: serving (inference tape, encoding cache, scratch
//	             buffers).
//	recording:   the same while recording an episode (training
//	             rollouts), which deep-copies each step.
//	greedy-fast-prov: serving with the provenance flight recorder
//	             attached — its overhead vs greedy-fast is the cost of
//	             decision capture.
func BenchmarkAgentOnEvent(b *testing.B) {
	run := func(b *testing.B, record, prov bool) {
		a := New(DefaultOptions(1))
		a.SetGreedy(!record)
		if prov {
			a.SetProvenance(provenance.NewRecorder(provenance.Options{Capacity: 256}))
		}
		st := benchState(b, 6, 8)
		ev := engine.Event{}
		a.OnEvent(st, ev) // warm scratch, cache, estimator windows
		if prov {
			for i := 0; i < 256; i++ { // wrap the ring so slot slabs are warm
				a.OnEvent(st, ev)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if record {
				a.startRecording() // keeps the episode buffer at one step
			}
			a.OnEvent(st, ev)
		}
	}
	b.Run("greedy-fast", func(b *testing.B) { run(b, false, false) })
	b.Run("recording", func(b *testing.B) { run(b, true, false) })
	b.Run("greedy-fast-prov", func(b *testing.B) { run(b, false, true) })
}

// onEventAllocs is the steady-state allocation count of one greedy
// OnEvent over benchState, with or without the flight recorder.
func onEventAllocs(t *testing.T, prov bool) float64 {
	a := New(DefaultOptions(1))
	a.SetGreedy(true)
	if prov {
		a.SetProvenance(provenance.NewRecorder(provenance.Options{Capacity: 256}))
	}
	st := benchState(t, 6, 8)
	ev := engine.Event{}
	for i := 0; i < 64; i++ { // warm scratch, caches, ring slabs
		a.OnEvent(st, ev)
	}
	return testing.AllocsPerRun(200, func() { a.OnEvent(st, ev) })
}

// TestFastPathAllocBudget pins the serving allocation budget: a
// steady-state greedy OnEvent allocates at most twice.
func TestFastPathAllocBudget(t *testing.T) {
	if got := onEventAllocs(t, false); got > 2 {
		t.Fatalf("steady-state OnEvent allocates %.1f times, budget is 2", got)
	}
}

// TestProvenanceRecordingAllocBudget pins the acceptance criterion that
// attaching the flight recorder costs at most one extra allocation per
// scheduling decision (it should cost zero once the ring slabs are
// warm).
func TestProvenanceRecordingAllocBudget(t *testing.T) {
	base, withProv := onEventAllocs(t, false), onEventAllocs(t, true)
	if withProv > base+1 {
		t.Fatalf("provenance adds %.1f allocs/op (base %.1f, with recorder %.1f), budget is 1",
			withProv-base, base, withProv)
	}
}
