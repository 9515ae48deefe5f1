// Package exec implements the vectorized columnar execution kernels the
// live engine runs work orders on: typed, branch-hoisted selection
// kernels producing reusable selection vectors, open-addressing hash
// tables with radix-partitioned batch probe, gather/projection kernels
// that materialize into pooled blocks, and a key-extracted radix sort.
// The kernels mirror the block-based Quickstep backend the paper
// schedules: each call processes one storage block, so one kernel
// invocation is one work order's data touch.
//
// Design rules shared by every kernel:
//
//  1. Dispatch once per block, not per row. The predicate kind, the
//     column type, and the output layout are resolved before the row
//     loop; the loop body is a tight typed comparison or copy.
//  2. No per-call allocation on the steady state. Kernels take caller-
//     owned scratch (selection vectors, key/row pairs) and grow it in
//     place; output blocks come from a BlockPool keyed by schema.
//  3. Selection vectors, not materialized intermediates. A filter or
//     probe produces row indices; materialization is a separate gather
//     so fused consumers can skip it.
//
// The engine's tests hold these kernels, through the engine's runners,
// to a per-row reference executor kept in its _test.go files.
package exec

// Scratch bundles the per-worker reusable buffers the kernels write
// into. One Scratch must not be used by two goroutines at once; the
// live engine keeps them in a sync.Pool so each concurrently executing
// work order borrows its own.
type Scratch struct {
	// Sel is the reusable selection vector (row indices into a block).
	Sel []int
	// Pairs is the reusable key-extraction buffer for sort kernels.
	Pairs []KeyRow
	// Pairs2 is the radix-sort / partition-scatter ping-pong buffer.
	Pairs2 []KeyRow
	// Marks is the per-row match bitmap the partitioned probe uses to
	// re-emit matches in ascending row order. Kernels that set bits
	// clear them again before returning, so it is all-false between
	// calls.
	Marks []bool
	// DictMap is the per-probe-code membership table of the translated
	// dictionary probe (probe-side code -> present in build table).
	DictMap []uint8
}

// GrowSel returns sel with length exactly n, reusing its backing array
// when capacity allows. Exported for callers (the engine's morsel
// driver) that carve a shared selection vector into per-morsel ranges
// before invoking the range kernels.
func GrowSel(sel []int, n int) []int {
	if cap(sel) < n {
		return make([]int, n)
	}
	return sel[:n]
}

func growSel(sel []int, n int) []int { return GrowSel(sel, n) }

// growMarks returns an all-false bitmap of length n (see Scratch.Marks
// for the clear-on-exit invariant that makes reuse sound).
func growMarks(m []bool, n int) []bool {
	if cap(m) < n {
		return make([]bool, n)
	}
	return m[:n]
}

// growPairs returns pairs with length exactly n, reusing the backing
// array when capacity allows.
func growPairs(pairs []KeyRow, n int) []KeyRow {
	if cap(pairs) < n {
		return make([]KeyRow, n)
	}
	return pairs[:n]
}
