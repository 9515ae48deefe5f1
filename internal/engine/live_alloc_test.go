package engine

import (
	"testing"

	"repro/internal/storage"
)

// Allocation-budget regression tests, mirroring the provenance
// recorder's TestProvenanceRecordingAllocBudget: once the block pool
// and scratch buffers are warm, serving a query must stay under a
// fixed allocations-per-run budget, so pooling
// regressions (a kernel quietly allocating per block again) fail CI
// instead of showing up as a throughput cliff later.

// allocBudgetCatalog is a small relation: 4 blocks so a query issues a
// handful of work orders per operator.
func allocBudgetCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	gen := storage.NewGenerator(42)
	rel, err := gen.Relation("t", 4*benchRows, benchRows, []storage.GenSpec{
		{Column: storage.Column{Name: "id", Type: storage.Int64Col}, Sequential: true},
		{Column: storage.Column{Name: "key", Type: storage.Int64Col}, Cardinality: 128},
		{Column: storage.Column{Name: "val", Type: storage.Float64Col}, MinFloat: 0, MaxFloat: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	if err := cat.Register(rel); err != nil {
		t.Fatal(err)
	}
	return cat
}

// liveRunAllocBudget bounds one steady-state RunOne of the 4-block
// select->aggregate->finalize pipeline. The budget covers the per-run
// bookkeeping that legitimately remains (liveRun, result maps, sim
// setup, plan clone) with modest headroom — op states, aggregate
// tables, estimator windows, events, and output blocks are all
// recycled; per-work-order and per-row allocations would blow through
// it immediately. Steady state measured ~100/op.
const liveRunAllocBudget = 150

func TestLiveRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	cat := allocBudgetCatalog(t)
	lv := NewLive(cat, LiveConfig{Threads: 2})
	tmpl := benchLivePlan(4)
	// Warm the pool, scratch buffers, and hash/agg table capacities.
	for i := 0; i < 3; i++ {
		if _, err := lv.RunOne(greedyTestSched{depth: 2}, tmpl); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := lv.RunOne(greedyTestSched{depth: 2}, tmpl); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state RunOne: %.0f allocs/op (budget %d)", allocs, liveRunAllocBudget)
	if allocs > liveRunAllocBudget {
		t.Fatalf("steady-state RunOne allocates %.0f/op, budget %d", allocs, liveRunAllocBudget)
	}
}
