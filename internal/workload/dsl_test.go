package workload

import (
	"testing"

	"repro/internal/plan"
)

func TestBlocksForScalesAndFloors(t *testing.T) {
	small := newTmpl("t", 1)
	if got := small.blocksFor(10); got != 1 {
		t.Fatalf("tiny relation should floor to 1 block, got %d", got)
	}
	big := newTmpl("t", 100)
	if got := big.blocksFor(6_000_000); got != 1500 {
		t.Fatalf("SF100 lineitem blocks = %d, want 1500", got)
	}
	// Zero or negative scale factors default to 1.
	def := newTmpl("t", 0)
	if got := def.blocksFor(400_000); got != 1 {
		t.Fatalf("default SF blocks = %d, want 1", got)
	}
}

func TestHashJoinShape(t *testing.T) {
	tm := newTmpl("t", 1)
	build := tm.scan("dim", 100_000, "d_key")
	probe := tm.scan("fact", 4_000_000, "f_key")
	out := build.hashJoin(probe, 0.1, "d_key")
	p := out.done()
	// scan, scan, build, probe.
	if p.NumOps() != 4 {
		t.Fatalf("join plan has %d ops, want 4", p.NumOps())
	}
	probeOp := p.Sink()
	if probeOp.Type != plan.ProbeHash {
		t.Fatalf("sink is %v, want ProbeHash", probeOp.Type)
	}
	// The probe's work-order count comes from the probe side's volume.
	if probeOp.EstBlocks != 10 {
		t.Fatalf("probe blocks = %d, want 10 (4M rows / 400k)", probeOp.EstBlocks)
	}
	// Input relations merge both sides.
	if len(probeOp.InputRelations) != 2 {
		t.Fatalf("probe input relations %v", probeOp.InputRelations)
	}
}

func TestSelApplySelectivityToChildren(t *testing.T) {
	tm := newTmpl("t", 1)
	filtered := tm.scan("fact", 4_000_000).sel(0.1, "col")
	agg := filtered.agg(10, "g")
	p := agg.done()
	var aggOp *plan.Operator
	for _, op := range p.Ops {
		if op.Type == plan.Aggregate {
			aggOp = op
		}
	}
	// The aggregate's input volume reflects the select's 10% output:
	// ceil(10 blocks × 0.1) = 1.
	if aggOp.EstBlocks != 1 {
		t.Fatalf("aggregate blocks = %d, want 1", aggOp.EstBlocks)
	}
}

func TestAggProducesFinalize(t *testing.T) {
	tm := newTmpl("t", 1)
	p := tm.scan("fact", 400_000).agg(5, "g").done()
	types := make([]plan.OpType, 0, p.NumOps())
	for _, op := range p.Ops {
		types = append(types, op.Type)
	}
	want := []plan.OpType{plan.TableScan, plan.Aggregate, plan.FinalizeAggregate}
	if len(types) != len(want) {
		t.Fatalf("plan ops %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("plan ops %v, want %v", types, want)
		}
	}
	// The aggregate edge must be pipeline-breaking, so the finalize
	// cannot start before the aggregate drains.
	for _, e := range p.Edges {
		if e.Parent.Type == plan.Aggregate && e.NonPipelineBreaking {
			t.Fatal("scan→aggregate edge must break the pipeline")
		}
	}
}
