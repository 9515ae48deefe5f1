package engine

import (
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

// runSort orders a block by its key column. It extracts (key, row)
// pairs once and radix- or quick-sorts them; ties order by row index,
// so the output is one deterministic total order at any morsel count.
func (lr *liveRun) runSort(q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	var keys []int64
	if col >= 0 {
		keys, _ = keyVec(in, col)
	}
	if keys == nil {
		return lr.runPassthrough(q, op, st, in)
	}
	n := in.NumRows()
	sc := lr.getScratch()
	pairs := exec.BuildPairs(keys, sc.Pairs)
	sc.Pairs = pairs
	if lr.splitParts(n) > 1 {
		// Morsel sort: radix-sort disjoint runs concurrently, then merge.
		// The radix passes are stable and merging compares (key, row), so
		// the output is the same (key, row)-ordered permutation the
		// unsplit sort produces, for any morsel count.
		var bounds [maxMorselParts + 1]int
		par := lr.runMorsels(n, func(p, lo, hi int) {
			msc := lr.getScratch()
			msc.Pairs2 = exec.SortPairsScratch(pairs[lo:hi], msc.Pairs2)
			lr.putScratch(msc)
		})
		lr.notePar(q, op, par)
		if par > 1 {
			for p := 0; p <= par; p++ {
				bounds[p], _ = morselSpan(p, par, n)
			}
			sc.Pairs2 = exec.MergeRuns(pairs, bounds[:par+1], sc.Pairs2)
		}
	} else {
		sc.Pairs2 = exec.SortPairsScratch(pairs, sc.Pairs2)
	}
	sel := exec.PairsToSel(pairs, sc.Sel)
	sc.Sel = sel
	out := lr.gatherAll(in, sel)
	lr.putScratch(sc)
	lr.emitPooled(st, out)
	return n
}
