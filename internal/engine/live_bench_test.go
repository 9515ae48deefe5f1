package engine

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/storage"
)

// Per-kernel benchmarks: one work order driven through the vectorized
// exec kernels. Each iteration processes one ~4k-row block; pooled
// outputs are recycled between iterations so the numbers reflect
// steady-state execution, the regime the live engine reaches once the
// pool is warm.

const benchRows = 4096

// benchBlock builds one block with an int64 key column (bounded
// cardinality, so hash state reaches steady size) and a float64 value
// column.
func benchBlock(b *testing.B) *storage.Block {
	b.Helper()
	gen := storage.NewGenerator(42)
	rel, err := gen.Relation("bench", benchRows, benchRows, []storage.GenSpec{
		{Column: storage.Column{Name: "key", Type: storage.Int64Col}, Cardinality: 128},
		{Column: storage.Column{Name: "val", Type: storage.Float64Col}, MinFloat: 0, MaxFloat: 100},
	})
	if err != nil {
		b.Fatal(err)
	}
	return rel.Blocks[0]
}

// benchRun builds a single-thread run of p's query (see testRun) and
// returns it with the op state of op.
func benchRun(p *plan.Plan, op *plan.Operator) (*liveRun, *QueryState, *liveOpState) {
	lr, q := testRun(NewLive(nil, LiveConfig{}), p)
	return lr, q, lr.opState(q.ID, op.ID)
}

// benchDrain recycles an op state's outputs between iterations: pooled
// blocks go back to the pool.
func benchDrain(lr *liveRun, st *liveOpState) {
	st.mu.Lock()
	pooled := st.pooled
	st.outputs = st.outputs[:0]
	st.pooled = st.pooled[:0]
	st.mu.Unlock()
	for _, blk := range pooled {
		lr.live.pool.Put(blk)
	}
}

func BenchmarkLiveKernels(b *testing.B) {
	b.Run("select", func(b *testing.B) {
		in := benchBlock(b)
		// ~50% selectivity over the 128-key space.
		op := &plan.Operator{Type: plan.Select, Columns: []string{"key"},
			Pred: plan.Predicate{Kind: plan.PredIntLess, Column: "key", Operand: 64}}
		lr, q, st := benchRun(singleOpPlan(op), op)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runSelect(q, op, st, in)
			benchDrain(lr, st)
		}
	})

	b.Run("build", func(b *testing.B) {
		in := benchBlock(b)
		op := &plan.Operator{Type: plan.BuildHash, Columns: []string{"key"}}
		lr, q, st := benchRun(singleOpPlan(op), op)
		lr.runBuild(q, op, st, in) // warm: table reaches steady size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runBuild(q, op, st, in)
		}
	})

	b.Run("probe", func(b *testing.B) {
		in := benchBlock(b)
		bp := plan.NewBuilder("bench-join")
		scan := bp.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"bench"}})
		buildOp := bp.Add(&plan.Operator{Type: plan.BuildHash, Columns: []string{"key"}})
		bp.ConnectAuto(scan, buildOp)
		probeOp := bp.Add(&plan.Operator{Type: plan.ProbeHash, Columns: []string{"key"}})
		bp.Connect(buildOp, probeOp, false)
		lr, q, st := benchRun(bp.MustBuild(), probeOp)
		lr.runBuild(q, buildOp, lr.opState(q.ID, buildOp.ID), in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runProbe(q, probeOp, st, in)
			benchDrain(lr, st)
		}
	})

	b.Run("aggregate", func(b *testing.B) {
		in := benchBlock(b)
		op := &plan.Operator{Type: plan.Aggregate, Columns: []string{"key"}}
		lr, q, st := benchRun(singleOpPlan(op), op)
		lr.runAggregate(q, op, st, in) // warm: group state reaches steady size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runAggregate(q, op, st, in)
		}
	})

	b.Run("sort", func(b *testing.B) {
		in := benchBlock(b)
		op := &plan.Operator{Type: plan.Sort, Columns: []string{"key"}}
		lr, q, st := benchRun(singleOpPlan(op), op)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runSort(q, op, st, in)
			benchDrain(lr, st)
		}
	})

	// strselect: equality select on a dictionary-encoded string column,
	// compared as int codes.
	b.Run("strselect", func(b *testing.B) {
		gen := storage.NewGenerator(42)
		rel, err := gen.Relation("strsel", benchRows, benchRows, []storage.GenSpec{
			{Column: storage.Column{Name: "tag", Type: storage.StringCol}, Cardinality: 8, DictEncode: true},
			{Column: storage.Column{Name: "val", Type: storage.Float64Col}, MinFloat: 0, MaxFloat: 100},
		})
		if err != nil {
			b.Fatal(err)
		}
		in := rel.Blocks[0] // ~1/8 selectivity
		op := &plan.Operator{Type: plan.Select, Columns: []string{"tag"},
			Pred: plan.Predicate{Kind: plan.PredStringEq, Column: "tag", SOperand: "v3"}}
		lr, q, st := benchRun(singleOpPlan(op), op)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runSelect(q, op, st, in)
			benchDrain(lr, st)
		}
	})

	// radixsort: sort a block far above the radix cutoff with a wide key
	// range, so it runs the LSD radix loop rather than the small-input
	// comparison fallback.
	b.Run("radixsort", func(b *testing.B) {
		const rows = 16 * benchRows
		gen := storage.NewGenerator(42)
		rel, err := gen.Relation("rsort", rows, rows, []storage.GenSpec{
			{Column: storage.Column{Name: "key", Type: storage.Int64Col}, Cardinality: 1 << 20},
			{Column: storage.Column{Name: "val", Type: storage.Float64Col}, MinFloat: 0, MaxFloat: 100},
		})
		if err != nil {
			b.Fatal(err)
		}
		in := rel.Blocks[0]
		op := &plan.Operator{Type: plan.Sort, Columns: []string{"key"}}
		lr, q, st := benchRun(singleOpPlan(op), op)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runSort(q, op, st, in)
			benchDrain(lr, st)
		}
	})

	// partprobe: a probe batch at 4x partitionedProbeMin against a
	// high-cardinality build side, so it takes the radix-partitioned
	// probe (partition, probe per-partition, re-emit in row order)
	// instead of the inline batch probe.
	b.Run("partprobe", func(b *testing.B) {
		const buildRows = 2 * benchRows
		const probeRows = 4 * benchRows
		gen := storage.NewGenerator(42)
		brel, err := gen.Relation("pbuild", buildRows, buildRows, []storage.GenSpec{
			{Column: storage.Column{Name: "key", Type: storage.Int64Col}, Cardinality: buildRows},
		})
		if err != nil {
			b.Fatal(err)
		}
		prel, err := gen.Relation("pprobe", probeRows, probeRows, []storage.GenSpec{
			{Column: storage.Column{Name: "key", Type: storage.Int64Col}, Cardinality: buildRows},
			{Column: storage.Column{Name: "val", Type: storage.Float64Col}, MinFloat: 0, MaxFloat: 100},
		})
		if err != nil {
			b.Fatal(err)
		}
		bp := plan.NewBuilder("bench-partjoin")
		scan := bp.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"pbuild"}})
		buildOp := bp.Add(&plan.Operator{Type: plan.BuildHash, Columns: []string{"key"}})
		bp.ConnectAuto(scan, buildOp)
		probeOp := bp.Add(&plan.Operator{Type: plan.ProbeHash, Columns: []string{"key"}})
		bp.Connect(buildOp, probeOp, false)
		lr, q, st := benchRun(bp.MustBuild(), probeOp)
		lr.runBuild(q, buildOp, lr.opState(q.ID, buildOp.ID), brel.Blocks[0])
		in := prel.Blocks[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runProbe(q, probeOp, st, in)
			benchDrain(lr, st)
		}
	})

	// fusedselect: a select whose sole parent is an aggregate, so the
	// engine fuses select->project and gathers only the aggregate's key
	// column into the intermediate block.
	b.Run("fusedselect", func(b *testing.B) {
		in := benchBlock(b)
		bp := plan.NewBuilder("bench-fused")
		scan := bp.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"bench"}})
		sel := bp.Add(&plan.Operator{Type: plan.Select, Columns: []string{"key"},
			Pred: plan.Predicate{Kind: plan.PredIntLess, Column: "key", Operand: 64}})
		bp.ConnectAuto(scan, sel)
		agg := bp.Add(&plan.Operator{Type: plan.Aggregate, Columns: []string{"key"}})
		bp.ConnectAuto(sel, agg)
		lr, q, st := benchRun(bp.MustBuild(), sel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr.runSelect(q, sel, st, in)
			benchDrain(lr, st)
		}
	})
}

// BenchmarkLiveRun drives the full engine — dispatch, workers, block
// pool, query-completion recycling, operator fusion. The Live (and
// with it the block pool and scratch buffers) is hoisted out of the
// loop, so the numbers reflect steady-state serving: the regime a
// resident engine reaches after its first few queries.
func BenchmarkLiveRun(b *testing.B) {
	gen := storage.NewGenerator(42)
	rel, err := gen.Relation("t", 8*benchRows, benchRows, []storage.GenSpec{
		{Column: storage.Column{Name: "id", Type: storage.Int64Col}, Sequential: true},
		{Column: storage.Column{Name: "key", Type: storage.Int64Col}, Cardinality: 128},
		{Column: storage.Column{Name: "val", Type: storage.Float64Col}, MinFloat: 0, MaxFloat: 100},
	})
	if err != nil {
		b.Fatal(err)
	}
	cat := storage.NewCatalog()
	if err := cat.Register(rel); err != nil {
		b.Fatal(err)
	}
	// Plans are read-only during execution (per-query state lives in
	// the sim and liveRun), so the arrivals are built once and reused.
	var arrivals []Arrival
	for i := 0; i < 4; i++ {
		arrivals = append(arrivals, Arrival{Plan: benchLivePlan(8), At: float64(i) * 0.01})
	}
	lv := NewLive(cat, LiveConfig{Threads: 4})
	if _, err := lv.Run(greedyTestSched{depth: 2}, arrivals); err != nil {
		b.Fatal(err) // warm pool, scratch, and table capacities
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lv.Run(greedyTestSched{depth: 2}, arrivals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveMorsels is the morsel-parallelism A/B: the same
// large-block workload (select->aggregate, sort, join over 16k-row
// blocks) with work-order splitting off and on, on a 4-thread pool.
// On a single-core host the pair is expected to be a wash (morsels
// convert idle cores into intra-order parallelism; there are none to
// convert), which is itself worth recording.
func BenchmarkLiveMorsels(b *testing.B) {
	cat := morselCatalog(b)
	for _, m := range []struct {
		name    string
		morsels int
	}{{"unsplit", 1}, {"split", 4}} {
		b.Run(m.name, func(b *testing.B) {
			lv := NewLive(cat, LiveConfig{Threads: 4, Morsels: m.morsels})
			if _, err := lv.Run(greedyTestSched{depth: 2}, morselArrivals()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lv.Run(greedyTestSched{depth: 2}, morselArrivals()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchLivePlan: scan -> select(id < half) -> aggregate -> finalize
// over the benchmark relation.
func benchLivePlan(blocks int) *plan.Plan {
	b := plan.NewBuilder("bench-q")
	scan := b.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"t"}, EstBlocks: blocks})
	sel := b.Add(&plan.Operator{
		Type: plan.Select, InputRelations: []string{"t"}, EstBlocks: blocks,
		Pred: plan.Predicate{Kind: plan.PredIntLess, Column: "id", Operand: 4 * benchRows},
	})
	b.ConnectAuto(scan, sel)
	agg := b.Add(&plan.Operator{Type: plan.Aggregate, InputRelations: []string{"t"}, EstBlocks: blocks, Columns: []string{"key"}})
	b.ConnectAuto(sel, agg)
	fin := b.Add(&plan.Operator{Type: plan.FinalizeAggregate, InputRelations: []string{"t"}, EstBlocks: 1})
	b.ConnectAuto(agg, fin)
	return b.MustBuild()
}
