package exec

import "repro/internal/storage"

// GatherFused materializes a single source column into a pooled block
// of the (cached, single-column) fused schema — the projection half of
// the fused select→build/aggregate path, which forwards only the key
// column downstream instead of the full row.
func GatherFused(p *BlockPool, in *storage.Block, schema *storage.Schema, col int, sel []int) *storage.Block {
	out := p.GetLike(in, schema, []int{col}, len(sel))
	out.Header.BlockID = in.Header.BlockID
	out.Header.Relation = in.Header.Relation
	GatherRange(out, in, []int{col}, sel, 0, len(sel))
	return out
}

// GatherRange fills output rows [lo, hi) of out from in's rows
// sel[lo:hi] — the projection kernel every filtering operator (select,
// probe, sort) ends with. cols maps output columns to source column
// indices (nil = identity). out's vectors must already be sized for
// len(sel) rows (see BlockPool.GetLike); disjoint ranges of one output
// block can be filled concurrently — the engine's morsel driver splits
// large gathers this way. The column loop dispatches on the vector type
// once per column; the row loops are tight typed copies into pre-sized
// vectors, so a steady-state gather performs zero allocations.
// Dictionary-coded string columns are gathered as codes (the output
// shares the input's dictionary) — a projection never decodes.
func GatherRange(out, in *storage.Block, cols []int, sel []int, lo, hi int) {
	seg := sel[lo:hi]
	for oi := range out.Schema.Columns {
		si := oi
		if cols != nil {
			si = cols[oi]
		}
		src := &in.Vectors[si]
		dst := &out.Vectors[oi]
		switch {
		case src.Ints != nil:
			GatherInt64(dst.Ints[lo:hi], src.Ints, seg)
		case src.Floats != nil:
			GatherFloat64(dst.Floats[lo:hi], src.Floats, seg)
		case src.Codes != nil:
			GatherInt64(dst.Codes[lo:hi], src.Codes, seg)
		case src.Strings != nil:
			GatherString(dst.Strings[lo:hi], src.Strings, seg)
		}
	}
}

// GatherInt64 copies src[sel[i]] into dst[i]. dst must have len(sel).
func GatherInt64(dst, src []int64, sel []int) {
	for i, r := range sel {
		dst[i] = src[r]
	}
}

// GatherFloat64 copies src[sel[i]] into dst[i]. dst must have len(sel).
func GatherFloat64(dst, src []float64, sel []int) {
	for i, r := range sel {
		dst[i] = src[r]
	}
}

// GatherString copies src[sel[i]] into dst[i]. dst must have len(sel).
func GatherString(dst, src []string, sel []int) {
	for i, r := range sel {
		dst[i] = src[r]
	}
}
