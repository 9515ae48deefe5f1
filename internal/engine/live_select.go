package engine

import (
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The Select runner and the gather every filtering runner ends with.
// The kernel dispatch (predicate kind, column type) happens once per
// block in internal/exec, row loops are tight typed scans over ints,
// floats, or dictionary codes, kept rows live in a reusable selection
// vector, and materialized outputs are gathered into blocks recycled
// through the engine's BlockPool. Two block-level optimizations layer
// on top:
//
//   - Fusion: a Select whose single consumer is a blocking operator
//     that only reads its key column (Aggregate/Distinct/Window, or a
//     BuildHash nothing probes through — see fuseParent) gathers just
//     that column, skipping the wide materialization entirely.
//   - Morsels: large filters, probes, sorts and gathers split into
//     row-range morsels when idle workers exist (see live_morsel.go),
//     stitched back in row order.
//
// Both keep a closure-free serial path so the common unsplit work order
// allocates nothing.

type fusedKey struct {
	schema *storage.Schema
	col    int
}

// fusedSchema returns the cached single-column schema for the fused
// select→consumer path, keyed by (input schema, column) and created on
// first use. Caching keeps the schema pointer stable, which the block
// pool needs: it keys free lists by schema pointer.
func (lv *Live) fusedSchema(s *storage.Schema, col int) *storage.Schema {
	key := fusedKey{schema: s, col: col}
	lv.fmu.Lock()
	defer lv.fmu.Unlock()
	if sc, ok := lv.fused[key]; ok {
		return sc
	}
	sc := storage.MustSchema(s.Columns[col])
	lv.fused[key] = sc
	return sc
}

// intKeyColumn is keyColumn restricted to integer columns. The
// selectivity fallback in selectPredicate realizes its estimate as an
// integer range filter, which has no meaning over dictionary codes —
// restricting it keeps the fallback's behavior identical to the
// pre-dictionary engine (pass through blocks with no int column).
func intKeyColumn(op *plan.Operator, b *storage.Block) int {
	for _, c := range op.Columns {
		if i := b.Schema.ColumnIndex(c); i >= 0 && b.Schema.Columns[i].Type == storage.Int64Col {
			return i
		}
	}
	for i, c := range b.Schema.Columns {
		if c.Type == storage.Int64Col {
			return i
		}
	}
	return -1
}

// selectPredicate resolves the effective predicate and column of a
// Select work order over one block.
func selectPredicate(op *plan.Operator, in *storage.Block) (plan.Predicate, int) {
	pred := op.Pred
	col := -1
	if pred.Column != "" {
		col = in.Schema.ColumnIndex(pred.Column)
	}
	if col < 0 || pred.Kind == plan.PredNone {
		// Benchmark templates carry selectivities rather than literal
		// predicates; realize the estimate as a range filter over the
		// key column so live cardinalities track the optimizer's.
		col = intKeyColumn(op, in)
		pred = plan.Predicate{Kind: plan.PredIntLess, Operand: int64(op.Selectivity * 1000)}
	}
	return pred, col
}

// fuseParent decides whether a Select's projection can fuse into its
// consumer: the select then emits only the consumer's key column
// instead of materializing every column of the kept rows. Safe exactly
// when the select has one parent, that parent draws its main input
// from the select, and the parent never re-exposes the select's rows
// downstream:
//
//   - Aggregate/Distinct/Window consume blocks into aggregate state and
//     emit nothing, so nobody else ever reads the slim block.
//   - BuildHash appends its input to its outputs, which a sibling
//     operator could draw as ITS main input (inputBlock reads the last
//     child's outputs — probes often list the build last). Fusing is
//     only safe when no grandparent draws its main input from the
//     build.
func fuseParent(op *plan.Operator) *plan.Operator {
	parents := op.Parents()
	if len(parents) != 1 {
		return nil
	}
	p := parents[0].Parent
	if mainChild(p) != op {
		return nil
	}
	switch p.Type {
	case plan.Aggregate, plan.Distinct, plan.Window:
		return p
	case plan.BuildHash:
		for _, e := range p.Parents() {
			if mainChild(e.Parent) == p {
				return nil
			}
		}
		return p
	}
	return nil
}

func (lr *liveRun) runSelect(q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	pred, col := selectPredicate(op, in)
	if col < 0 {
		return lr.runPassthrough(q, op, st, in)
	}
	n := in.NumRows()
	sc := lr.getScratch()
	sel := exec.GrowSel(sc.Sel, n)
	sc.Sel = sel
	var kept []int
	if lr.splitParts(n) > 1 {
		var counts [maxMorselParts]int
		par := lr.runMorsels(n, func(p, lo, hi int) {
			counts[p] = len(exec.FilterRange(pred, &in.Vectors[col], lo, hi, sel[lo:hi]))
		})
		lr.notePar(q, op, par)
		kept = compactSel(sel, &counts, par, n)
	} else {
		kept = exec.FilterRange(pred, &in.Vectors[col], 0, n, sel)
	}
	var out *storage.Block
	if fp := fuseParent(op); fp != nil {
		if kcol := keyColumn(fp, in); kcol >= 0 {
			// Fused select→consumer: gather only the consumer's key
			// column into a slim single-column block.
			schema := lr.live.fusedSchema(in.Schema, kcol)
			out = exec.GatherFused(lr.live.pool, in, schema, kcol, kept)
		}
	}
	if out == nil {
		out = lr.gatherAll(in, kept)
	}
	lr.putScratch(sc)
	lr.emitPooled(st, out)
	return len(kept)
}

// gatherAll materializes the selected rows of every column into a
// pooled block, splitting the copy across morsels when the selection is
// large (each morsel writes a disjoint output row range).
func (lr *liveRun) gatherAll(in *storage.Block, sel []int) *storage.Block {
	k := len(sel)
	out := lr.live.pool.GetLike(in, in.Schema, nil, k)
	out.Header.BlockID = in.Header.BlockID
	out.Header.Relation = in.Header.Relation
	if lr.splitParts(k) > 1 {
		lr.runMorsels(k, func(_, lo, hi int) {
			exec.GatherRange(out, in, nil, sel, lo, hi)
		})
	} else {
		exec.GatherRange(out, in, nil, sel, 0, k)
	}
	return out
}
