package exec

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/storage"
)

// evalRef is the reference per-row predicate evaluation the kernels
// must match.
func evalRef(p plan.Predicate, v *storage.ColumnVector, i int) bool {
	switch p.Kind {
	case plan.PredIntLess:
		return v.Ints != nil && v.Ints[i] < p.Operand
	case plan.PredIntGreaterEq:
		return v.Ints != nil && v.Ints[i] >= p.Operand
	case plan.PredIntEq:
		return v.Ints != nil && v.Ints[i] == p.Operand
	case plan.PredFloatLess:
		return v.Floats != nil && v.Floats[i] < p.FOperand
	case plan.PredStringEq:
		return v.Strings != nil && v.Strings[i] == p.SOperand
	default:
		return true
	}
}

func TestFilterMatchesReferenceAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 513
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(100))
		floats[i] = rng.Float64() * 100
		strs[i] = string(rune('a' + rng.Intn(4)))
	}
	cases := []struct {
		name string
		pred plan.Predicate
		vec  storage.ColumnVector
	}{
		{"int-less", plan.Predicate{Kind: plan.PredIntLess, Operand: 50}, storage.ColumnVector{Ints: ints}},
		{"int-ge", plan.Predicate{Kind: plan.PredIntGreaterEq, Operand: 73}, storage.ColumnVector{Ints: ints}},
		{"int-eq", plan.Predicate{Kind: plan.PredIntEq, Operand: 7}, storage.ColumnVector{Ints: ints}},
		{"float-less", plan.Predicate{Kind: plan.PredFloatLess, FOperand: 33.3}, storage.ColumnVector{Floats: floats}},
		{"string-eq", plan.Predicate{Kind: plan.PredStringEq, SOperand: "b"}, storage.ColumnVector{Strings: strs}},
		{"none", plan.Predicate{Kind: plan.PredNone}, storage.ColumnVector{Ints: ints}},
		{"type-mismatch", plan.Predicate{Kind: plan.PredIntLess, Operand: 50}, storage.ColumnVector{Floats: floats}},
	}
	var sel []int
	for _, tc := range cases {
		sel = FilterRange(tc.pred, &tc.vec, 0, n, GrowSel(sel, n))
		var want []int
		for i := 0; i < n; i++ {
			if evalRef(tc.pred, &tc.vec, i) {
				want = append(want, i)
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("%s: kept %d rows, want %d", tc.name, len(sel), len(want))
		}
		for i := range want {
			if sel[i] != want[i] {
				t.Fatalf("%s: sel[%d] = %d, want %d", tc.name, i, sel[i], want[i])
			}
		}
	}
}

func TestFilterReusesScratch(t *testing.T) {
	ints := []int64{5, 1, 9, 3}
	vec := storage.ColumnVector{Ints: ints}
	sel := make([]int, 0, 16)
	base := &sel[:1][0]
	out := FilterRange(plan.Predicate{Kind: plan.PredIntLess, Operand: 4}, &vec, 0, 4, GrowSel(sel, 4))
	if got, want := len(out), 2; got != want {
		t.Fatalf("kept %d, want %d", got, want)
	}
	if &out[0] != base {
		t.Fatal("filter did not reuse the scratch selection vector")
	}
}

func TestFilterEmptyAndZeroRows(t *testing.T) {
	vec := storage.ColumnVector{Ints: []int64{}}
	if got := FilterRange(plan.Predicate{Kind: plan.PredIntLess, Operand: 4}, &vec, 0, 0, nil); len(got) != 0 {
		t.Fatalf("empty column kept %d rows", len(got))
	}
	nilVec := storage.ColumnVector{}
	if got := FilterRange(plan.Predicate{Kind: plan.PredIntEq, Operand: 4}, &nilVec, 0, 0, nil); len(got) != 0 {
		t.Fatalf("nil column kept %d rows", len(got))
	}
}

// gather materializes sel the way the engine does: a pooled block sized
// by GetLike, filled by GatherRange.
func gather(p *BlockPool, in *storage.Block, sel []int) *storage.Block {
	out := p.GetLike(in, in.Schema, nil, len(sel))
	GatherRange(out, in, nil, sel, 0, len(sel))
	return out
}

func TestGatherMaterializesSelectedRows(t *testing.T) {
	schema := storage.MustSchema(
		storage.Column{Name: "a", Type: storage.Int64Col},
		storage.Column{Name: "b", Type: storage.Float64Col},
		storage.Column{Name: "c", Type: storage.StringCol},
	)
	in := &storage.Block{
		Header: storage.BlockHeader{BlockID: 3, Relation: "r", Rows: 4},
		Schema: schema,
		Vectors: []storage.ColumnVector{
			{Ints: []int64{10, 11, 12, 13}},
			{Floats: []float64{0.5, 1.5, 2.5, 3.5}},
			{Strings: []string{"w", "x", "y", "z"}},
		},
	}
	out := gather(nil, in, []int{3, 1})
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("bad header: %+v", out.Header)
	}
	if out.Vectors[0].Ints[0] != 13 || out.Vectors[0].Ints[1] != 11 {
		t.Fatalf("int gather wrong: %v", out.Vectors[0].Ints)
	}
	if out.Vectors[1].Floats[0] != 3.5 || out.Vectors[1].Floats[1] != 1.5 {
		t.Fatalf("float gather wrong: %v", out.Vectors[1].Floats)
	}
	if out.Vectors[2].Strings[0] != "z" || out.Vectors[2].Strings[1] != "x" {
		t.Fatalf("string gather wrong: %v", out.Vectors[2].Strings)
	}
}
