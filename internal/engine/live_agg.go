package engine

import (
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The grouped-aggregate runners: Aggregate (and Distinct, Window) counts
// rows per key into the operator's SumTable, and FinalizeAggregate
// exports its child's table as one (group, value) block.

func (lr *liveRun) runAggregate(_ *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	var keys []int64
	if col >= 0 {
		keys, _ = keyVec(in, col)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.agg == nil {
		st.agg = lr.live.aggTables.Get().(*exec.SumTable)
	}
	if keys == nil {
		st.agg.Add(0, float64(in.NumRows()))
		return 1
	}
	st.agg.AddOnes(keys)
	return st.agg.Len()
}

// aggOutSchema is the fixed output schema of FinalizeAggregate, hoisted
// to package scope so finalize work orders don't rebuild (and
// re-allocate) it per call — pool recycling also needs the pointer
// stable across runs.
var aggOutSchema = storage.MustSchema(
	storage.Column{Name: "group", Type: storage.Int64Col},
	storage.Column{Name: "value", Type: storage.Float64Col},
)

// runFinalize exports the child aggregate's groups straight into a
// pooled block's vectors, so steady-state finalize reuses the previous
// query's backing arrays. An aggregate that never saw a row has no
// table and finalizes to zero groups.
func (lr *liveRun) runFinalize(q *QueryState, op *plan.Operator, st *liveOpState, _ *storage.Block) int {
	cs := lr.opState(q.ID, op.Children()[0].Child.ID)
	cs.mu.Lock()
	groups := cs.agg.Len()
	out := lr.live.pool.Get(aggOutSchema, groups)
	keys, vals := cs.agg.Export(out.Vectors[0].Ints[:0], out.Vectors[1].Floats[:0])
	cs.mu.Unlock()
	out.Vectors[0].Ints, out.Vectors[1].Floats = keys, vals
	out.Header.Relation = "agg:" + q.Plan.QueryName
	lr.emitPooled(st, out)
	return groups
}
