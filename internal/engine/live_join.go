package engine

import (
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The hash-join runners: BuildHash inserts a block's key column into the
// operator's radix-partitioned table, and every join kind probes it and
// gathers the matching rows.

func (lr *liveRun) runBuild(_ *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	if col < 0 {
		return 0
	}
	keys, dict := keyVec(in, col)
	if keys == nil {
		return 0
	}
	st.mu.Lock()
	if st.hash == nil {
		st.hash = exec.NewRadixTable(len(keys))
	}
	st.hash.AddBatch(keys)
	if dict != nil {
		st.hash.SetDict(dict)
	}
	st.outputs = append(st.outputs, in)
	st.mu.Unlock()
	return len(keys)
}

// buildChild finds a probe operator's build-side input: the explicit
// BuildHash child when the plan has one, else the first blocking child.
// Preferring BuildHash matters for multi-child probes — a plan can feed
// another blocking child (say a Sort on the probe side) into the join
// ahead of the BuildHash in the child list, and probing that child's
// never-built table would silently match nothing.
func buildChild(op *plan.Operator) *plan.Operator {
	for _, e := range op.Children() {
		if e.Child.Type == plan.BuildHash {
			return e.Child
		}
	}
	for _, e := range op.Children() {
		if !e.NonPipelineBreaking {
			return e.Child
		}
	}
	return nil
}

func (lr *liveRun) runProbe(q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	if col < 0 {
		return 0
	}
	keys, dict := keyVec(in, col)
	if keys == nil {
		return 0
	}
	n := in.NumRows()
	sc := lr.getScratch()
	kept := sc.Sel[:0]
	if b := buildChild(op); b != nil {
		build := lr.opState(q.ID, b.ID)
		// Probe under the build-side lock. The scheduler only activates
		// a probe after its build input completed (the edge is pipeline-
		// breaking), so the lock is uncontended in engine runs — but it
		// keeps the executor safe under any interleaving, not just the
		// scheduled one.
		build.mu.Lock()
		tbl := build.hash
		switch {
		case tbl == nil:
			// No table built (e.g. build side drew only empty blocks).
		case dict != nil || tbl.Dict() != nil:
			// String-keyed join: codes compare directly when both sides
			// share a dictionary, translate through the build dictionary
			// otherwise; a dict/int representation mismatch matches
			// nothing (ProbeDict handles all three).
			kept = tbl.ProbeDict(dict, keys, sc)
		case lr.splitParts(n) > 1:
			sel := exec.GrowSel(sc.Sel, n)
			sc.Sel = sel
			var counts [maxMorselParts]int
			par := lr.runMorsels(n, func(p, lo, hi int) {
				counts[p] = len(tbl.ProbeRange(keys, lo, hi, sel[lo:hi]))
			})
			lr.notePar(q, op, par)
			kept = compactSel(sel, &counts, par, n)
		default:
			// Radix-partitioned probe: scatter keys into cache-sized
			// partitions, probe each partition's table run, re-emit in
			// row order (falls back to the inline probe on small blocks).
			kept = tbl.ProbeBatchPartitioned(keys, sc)
		}
		build.mu.Unlock()
	}
	out := lr.gatherAll(in, kept)
	lr.putScratch(sc)
	lr.emitPooled(st, out)
	return len(kept)
}
