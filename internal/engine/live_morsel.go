package engine

import (
	"sync"

	"repro/internal/plan"
)

// Morsel-style intra-work-order parallelism. The scheduler's unit of
// dispatch stays the work order — its accounting, QueryObserver joins,
// and per-operator counters are untouched — but a large work order may
// split its row range into morsels and recruit idle worker threads to
// run them concurrently. Helpers are borrowed from a run-wide token
// gate sized at Threads-1, acquired non-blockingly: when every worker
// is busy a work order simply runs unsplit, so morsels only convert
// idle capacity into intra-order parallelism and never delay peer work
// orders. Each morsel writes a disjoint sub-range of the work order's
// selection vector (or pair array), and the driver stitches results
// back in ascending row order, keeping output bit-identical to the
// unsplit execution regardless of how many helpers were available.

// morselMinRows is the smallest row range worth a helper goroutine;
// below 2*morselMinRows a work order never splits.
const morselMinRows = 2048

// maxMorselParts bounds the split fan-out of one work order. NewLive
// clamps the configured bound to it, so per-morsel counters can live in
// fixed arrays on the stack.
const maxMorselParts = 8

// morselSpan returns the half-open row range of morsel p of parts over
// n rows.
func morselSpan(p, parts, n int) (lo, hi int) {
	return p * n / parts, (p + 1) * n / parts
}

// splitParts decides how many morsels an n-row work order splits into
// under the engine's bound; 1 means run unsplit.
func (lr *liveRun) splitParts(n int) int {
	if lr.live.morsels <= 1 || n < 2*morselMinRows {
		return 1
	}
	parts := n / morselMinRows
	if parts > lr.live.morsels {
		parts = lr.live.morsels
	}
	return parts
}

// acquireHelpers takes up to want helper tokens without blocking; a nil
// gate (morsels off) yields zero.
func (lr *liveRun) acquireHelpers(want int) int {
	got := 0
	for got < want {
		select {
		case <-lr.morselGate:
			got++
		default:
			return got
		}
	}
	return got
}

func (lr *liveRun) releaseHelpers(n int) {
	for i := 0; i < n; i++ {
		lr.morselGate <- struct{}{}
	}
}

// runMorsels executes fn over [0,n) split into morsels, one goroutine
// per borrowed helper plus the calling worker, and returns the achieved
// parallelism (the part count; 1 = ran unsplit). fn must write only
// state owned by its row range. Callers should check splitParts first
// and keep a closure-free serial path — the returned parallelism feeds
// notePar so the cost model can convert wall time back to serial work.
func (lr *liveRun) runMorsels(n int, fn func(part, lo, hi int)) int {
	parts := lr.splitParts(n)
	if parts > 1 {
		helpers := lr.acquireHelpers(parts - 1)
		parts = helpers + 1
	}
	if parts == 1 {
		fn(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 0; p < parts-1; p++ {
		lo, hi := morselSpan(p, parts, n)
		go func(p, lo, hi int) {
			defer wg.Done()
			fn(p, lo, hi)
		}(p, lo, hi)
	}
	lo, hi := morselSpan(parts-1, parts, n)
	fn(parts-1, lo, hi)
	wg.Wait()
	lr.releaseHelpers(parts - 1)
	lr.live.instr.morselSplits.Inc()
	lr.live.instr.morselHelpers.Add(int64(parts - 1))
	return parts
}

// notePar reports a work order's achieved morsel parallelism to the
// run's cost estimator (see costmodel.ObserveParallelism), so O-DUR
// keeps predicting wall time when helper availability fluctuates. Keys
// that never split, and runs with no helper gate, are never reported,
// leaving their estimator state bit-identical to the pre-morsel engine.
func (lr *liveRun) notePar(q *QueryState, op *plan.Operator, par int) {
	if lr.morselGate == nil {
		return
	}
	lr.estMu.Lock()
	lr.estimator.ObserveParallelism(opKey(q.ID, op.ID), float64(par))
	lr.estMu.Unlock()
}

// compactSel stitches the per-morsel kept prefixes of a shared
// selection vector (morsel p wrote counts[p] kept rows at the start of
// its sub-range) into one dense ascending prefix and returns it.
// Morsels emit ascending absolute indices within disjoint ascending
// ranges, so the concatenation is the exact selection the unsplit
// kernel would have produced.
func compactSel(sel []int, counts *[maxMorselParts]int, parts, n int) []int {
	kept := counts[0]
	for p := 1; p < parts; p++ {
		lo, _ := morselSpan(p, parts, n)
		copy(sel[kept:], sel[lo:lo+counts[p]])
		kept += counts[p]
	}
	return sel[:kept]
}
