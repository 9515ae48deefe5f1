package engine

import (
	"testing"

	"repro/internal/metrics"
)

// TestLiveReferenceMatchesVectorEndToEnd runs the same workload through
// the full live engine on the exec kernels and on the per-row reference
// and requires identical results: same work-order count and same
// per-query output rows. This is the end-to-end companion of the
// per-kernel differential tests.
func TestLiveReferenceMatchesVectorEndToEnd(t *testing.T) {
	cat := liveCatalog(t, "t", 1000, 125) // 8 blocks
	arrivals := func() []Arrival {
		var a []Arrival
		for i := 0; i < 6; i++ {
			a = append(a, Arrival{Plan: livePlan(8), At: float64(i) * 0.01})
		}
		return a
	}

	vec := NewLive(cat, LiveConfig{Threads: 4})
	vres, err := vec.Run(greedyTestSched{depth: 2}, arrivals())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewLive(cat, LiveConfig{Threads: 4})
	useReference(ref)
	rres, err := ref.Run(greedyTestSched{depth: 2}, arrivals())
	if err != nil {
		t.Fatal(err)
	}

	if vres.WorkOrders != rres.WorkOrders {
		t.Fatalf("vector executed %d WOs, reference %d", vres.WorkOrders, rres.WorkOrders)
	}
	if len(vres.OutputRows) != len(rres.OutputRows) {
		t.Fatalf("vector completed %d queries, reference %d", len(vres.OutputRows), len(rres.OutputRows))
	}
	for qid, rows := range vres.OutputRows {
		if rres.OutputRows[qid] != rows {
			t.Fatalf("query %d: vector output %d rows, reference %d", qid, rows, rres.OutputRows[qid])
		}
	}
}

// TestLivePoolAndKernelMetrics verifies satellite instrumentation: the
// block pool's hit/miss counters and the per-kernel work-order counters
// flow through the metrics registry. Staggered arrivals make early
// queries complete (recycling their blocks) while later ones still
// allocate, so both hits and misses must be non-zero; the kernel
// counters must sum to the engine's own work-order count.
func TestLivePoolAndKernelMetrics(t *testing.T) {
	cat := liveCatalog(t, "t", 1000, 125) // 8 blocks
	reg := metrics.NewRegistry()
	lv := NewLive(cat, LiveConfig{Threads: 2, Metrics: reg})

	var arrivals []Arrival
	for i := 0; i < 8; i++ {
		// Spread arrivals out so earlier queries finish — returning
		// their pooled blocks — before later ones draw from the pool.
		arrivals = append(arrivals, Arrival{Plan: livePlan(8), At: float64(i) * 0.05})
	}
	res, err := lv.Run(greedyTestSched{depth: 2}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != len(arrivals) {
		t.Fatalf("%d of %d queries completed", len(res.Durations), len(arrivals))
	}

	misses := reg.Counter("live_block_pool_misses").Value()
	hits := reg.Counter("live_block_pool_hits").Value()
	if misses == 0 {
		t.Fatal("pool recorded no misses; the first query cannot have hit a warm pool")
	}
	if hits == 0 {
		t.Fatal("pool recorded no hits; completed queries' blocks were never recycled")
	}

	var kernelTotal int64
	for _, name := range []string{
		"live_kernel_wo_select", "live_kernel_wo_build", "live_kernel_wo_probe",
		"live_kernel_wo_aggregate", "live_kernel_wo_sort",
		"live_kernel_wo_passthrough", "live_kernel_wo_finalize",
	} {
		kernelTotal += reg.Counter(name).Value()
	}
	if kernelTotal != int64(res.WorkOrders) {
		t.Fatalf("kernel counters sum to %d, engine executed %d work orders", kernelTotal, res.WorkOrders)
	}
	// This plan shape pins specific kernels: every query has selects,
	// aggregates, and exactly one finalize.
	if got := reg.Counter("live_kernel_wo_select").Value(); got == 0 {
		t.Fatal("no select kernel work orders counted")
	}
	if got := reg.Counter("live_kernel_wo_finalize").Value(); got != int64(len(arrivals)) {
		t.Fatalf("finalize kernel count = %d, want %d", got, len(arrivals))
	}
}
