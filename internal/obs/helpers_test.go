package obs

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// Test helpers shared by the obs test files: a small deterministic
// simulator run whose registry and trace feed the exposition endpoints
// and the span exporter.

// testChain builds scan -> select -> agg -> finalize.
func testChain(name string, blocks int) *plan.Plan {
	b := plan.NewBuilder(name)
	scan := b.Add(&plan.Operator{Type: plan.TableScan, EstBlocks: blocks})
	sel := b.Add(&plan.Operator{Type: plan.Select, EstBlocks: blocks})
	b.ConnectAuto(scan, sel)
	agg := b.Add(&plan.Operator{Type: plan.Aggregate, EstBlocks: blocks})
	b.ConnectAuto(sel, agg)
	fin := b.Add(&plan.Operator{Type: plan.FinalizeAggregate, EstBlocks: 1})
	b.ConnectAuto(agg, fin)
	return b.MustBuild()
}

// runTestSim executes a fixed mixed workload under FIFO on the
// virtual-time engine and returns the instrumented run's registry,
// trace, and result. Deterministic for a fixed seed.
func runTestSim(t *testing.T, seed int64) (*metrics.Registry, *metrics.Tracer, *engine.SimResult) {
	t.Helper()
	reg := metrics.NewRegistry()
	tr := metrics.NewTracer(1 << 14)
	sim := engine.NewSim(engine.SimConfig{
		Threads: 4, Seed: seed, NoiseFrac: 0.2, Metrics: reg, Trace: tr,
	})
	arrivals := []engine.Arrival{
		{Plan: testChain("q_alpha", 6), At: 0},
		{Plan: testChain("q_beta", 4), At: 0.5},
		{Plan: testChain("q_gamma", 8), At: 1.2},
	}
	res, err := sim.Run(heuristics.FIFO{}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return reg, tr, res
}
