package exec

// Key-extracted sort kernel. Instead of sort.Slice over row indices
// with a closure dereferencing the key column per comparison, the sort
// operator extracts (key, row) pairs once and sorts the compact pair
// slice directly: comparisons touch 16 contiguous bytes, there is no
// interface or closure call per comparison, and the pair buffer is
// caller-owned scratch. Ties order by row index, which makes the result
// a deterministic total order (row indices are unique) — the same order
// at any morsel count, and the one the engine's per-row reference
// checks exactly.

// KeyRow pairs a sort key with the row it came from.
type KeyRow struct {
	Key int64
	Row int32
}

// BuildPairs fills pairs with (keys[i], i), reusing the backing array
// when its capacity suffices.
func BuildPairs(keys []int64, pairs []KeyRow) []KeyRow {
	if cap(pairs) < len(keys) {
		pairs = make([]KeyRow, len(keys))
	} else {
		pairs = pairs[:len(keys)]
	}
	for i, k := range keys {
		pairs[i] = KeyRow{Key: k, Row: int32(i)}
	}
	return pairs
}

// PairsToSel writes the row indices of the sorted pairs into a
// selection vector for the gather kernel.
func PairsToSel(pairs []KeyRow, sel []int) []int {
	sel = growSel(sel, len(pairs))
	for i, p := range pairs {
		sel[i] = int(p.Row)
	}
	return sel
}

// pairLess orders by (Key, Row).
func pairLess(a, b KeyRow) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Row < b.Row
}

// insertionCutoff is the subarray size below which insertion sort beats
// partitioning.
const insertionCutoff = 16

// SortPairs sorts pairs ascending by (Key, Row) with an in-place
// median-of-three quicksort, recursing into the smaller partition and
// looping on the larger so stack depth stays O(log n).
func SortPairs(pairs []KeyRow) {
	lo, hi := 0, len(pairs)
	for hi-lo > insertionCutoff {
		p := partition(pairs, lo, hi)
		if p-lo < hi-p-1 {
			SortPairs(pairs[lo:p])
			lo = p + 1
		} else {
			SortPairs(pairs[p+1 : hi])
			hi = p
		}
	}
	// Insertion sort the remaining short run.
	for i := lo + 1; i < hi; i++ {
		x := pairs[i]
		j := i - 1
		for j >= lo && pairLess(x, pairs[j]) {
			pairs[j+1] = pairs[j]
			j--
		}
		pairs[j+1] = x
	}
}

// partition picks a median-of-three pivot and partitions pairs[lo:hi]
// around it, returning the pivot's final position.
func partition(pairs []KeyRow, lo, hi int) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	// Order lo, mid, last; the median lands at mid.
	if pairLess(pairs[mid], pairs[lo]) {
		pairs[mid], pairs[lo] = pairs[lo], pairs[mid]
	}
	if pairLess(pairs[last], pairs[mid]) {
		pairs[last], pairs[mid] = pairs[mid], pairs[last]
		if pairLess(pairs[mid], pairs[lo]) {
			pairs[mid], pairs[lo] = pairs[lo], pairs[mid]
		}
	}
	pivot := pairs[mid]
	pairs[mid], pairs[last] = pairs[last], pairs[mid]
	i := lo
	for j := lo; j < last; j++ {
		if pairLess(pairs[j], pivot) {
			pairs[i], pairs[j] = pairs[j], pairs[i]
			i++
		}
	}
	pairs[i], pairs[last] = pairs[last], pairs[i]
	return i
}
