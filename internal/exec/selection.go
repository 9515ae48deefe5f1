package exec

import (
	"repro/internal/plan"
	"repro/internal/storage"
)

// FilterRange evaluates pred over rows [lo, hi) of column v: it writes
// the kept absolute row indices into sel (which must have len >= hi-lo)
// and returns the kept prefix. The predicate kind and column vector are
// dispatched once; each typed loop writes its candidate index
// unconditionally and advances the output cursor on a comparison
// result, which the compiler lowers branch-free — at mixed
// selectivities this is the difference between a predictable store
// stream and a mispredicted branch per row. The engine's morsel driver
// hands each morsel a disjoint sub-range of one shared selection
// vector, so concurrent range filters over one block need no
// synchronization.
//
// A typed predicate over a column of the wrong type keeps nothing;
// PredNone and unknown kinds keep everything. A string-equality
// predicate over a dictionary-coded column resolves the operand to its
// code once and runs the integer-equality loop over codes.
func FilterRange(pred plan.Predicate, v *storage.ColumnVector, lo, hi int, sel []int) []int {
	k := 0
	switch pred.Kind {
	case plan.PredIntLess:
		vals := v.Ints
		if vals == nil {
			return sel[:0]
		}
		op := pred.Operand
		for i, x := range vals[lo:hi] {
			sel[k] = lo + i
			if x < op {
				k++
			}
		}
	case plan.PredIntGreaterEq:
		vals := v.Ints
		if vals == nil {
			return sel[:0]
		}
		op := pred.Operand
		for i, x := range vals[lo:hi] {
			sel[k] = lo + i
			if x >= op {
				k++
			}
		}
	case plan.PredIntEq:
		vals := v.Ints
		if vals == nil {
			return sel[:0]
		}
		op := pred.Operand
		for i, x := range vals[lo:hi] {
			sel[k] = lo + i
			if x == op {
				k++
			}
		}
	case plan.PredFloatLess:
		vals := v.Floats
		if vals == nil {
			return sel[:0]
		}
		op := pred.FOperand
		for i, x := range vals[lo:hi] {
			sel[k] = lo + i
			if x < op {
				k++
			}
		}
	case plan.PredStringEq:
		if codes := v.Codes; codes != nil && v.Dict != nil {
			// Dictionary-coded column: the string compare leaves the
			// row loop entirely — resolve the operand to its code once
			// and the loop is integer equality over codes. An operand
			// outside the dictionary matches nothing.
			op, ok := v.Dict.Code(pred.SOperand)
			if !ok {
				return sel[:0]
			}
			for i, x := range codes[lo:hi] {
				sel[k] = lo + i
				if x == op {
					k++
				}
			}
			break
		}
		vals := v.Strings
		if vals == nil {
			return sel[:0]
		}
		op := pred.SOperand
		for i, x := range vals[lo:hi] {
			sel[k] = lo + i
			if x == op {
				k++
			}
		}
	default:
		for i := lo; i < hi; i++ {
			sel[k] = i
			k++
		}
	}
	return sel[:k]
}
