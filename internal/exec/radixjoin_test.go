package exec

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/storage"
)

func TestRadixTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := NewRadixTable(0)
	ref := make(map[int64]int64)
	for i := 0; i < 8000; i++ {
		var k int64
		switch rng.Intn(4) {
		case 0:
			k = int64(rng.Intn(40))
		case 1:
			k = rng.Int63()
		case 2:
			k = -int64(rng.Intn(500))
		default:
			k = 0
		}
		tbl.AddBatch([]int64{k})
		ref[k]++
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(ref))
	}
	if tbl.Total() != 8000 {
		t.Fatalf("Total = %d, want 8000", tbl.Total())
	}
	for k, c := range ref {
		if got := tbl.Count(k); got != c {
			t.Fatalf("Count(%d) = %d, want %d", k, got, c)
		}
	}
}

// The partitioned probe must be bit-identical to the inline probe: same
// matches, ascending row order.
func TestProbeBatchPartitionedMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	build := randomKeys(rng, 200000)
	tbl := NewRadixTable(len(build))
	tbl.AddBatch(build)
	sc := &Scratch{}
	for _, n := range []int{0, 100, partitionedProbeMin, partitionedProbeMin * 4} {
		probe := randomKeys(rng, n)
		// Seed some guaranteed matches.
		for i := 0; i < n; i += 3 {
			probe[i] = build[rng.Intn(len(build))]
		}
		want := tbl.ProbeRange(probe, 0, n, make([]int, n))
		got := append([]int(nil), tbl.ProbeBatchPartitioned(probe, sc)...)
		if len(got) != len(want) {
			t.Fatalf("n=%d: partitioned kept %d, inline kept %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d position %d: got row %d, want %d", n, i, got[i], want[i])
			}
		}
		// The mark bitmap must be restored to all-false for the next call.
		for i, m := range sc.Marks {
			if m {
				t.Fatalf("n=%d: mark %d left set", n, i)
			}
		}
	}
}

func TestProbeRangeAbsoluteIndices(t *testing.T) {
	tbl := NewRadixTable(0)
	tbl.AddBatch([]int64{10, 20, 30})
	keys := []int64{10, 11, 20, 21, 30, 31}
	sel := make([]int, 3)
	got := tbl.ProbeRange(keys, 2, 5, sel)
	want := []int{2, 4}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ProbeRange kept %v, want %v", got, want)
	}
}

func TestProbeDictSharedAndTranslated(t *testing.T) {
	buildDict := storage.NewDictionary([]string{"apple", "fig", "pear", "zebra"})
	probeDict := storage.NewDictionary([]string{"apple", "banana", "pear", "quince"})
	tbl := NewRadixTable(0)
	for _, v := range []string{"apple", "pear", "pear"} {
		c, ok := buildDict.Code(v)
		if !ok {
			t.Fatal("build value missing from dictionary")
		}
		tbl.AddBatch([]int64{c})
	}
	tbl.SetDict(buildDict)
	sc := &Scratch{}

	// Shared dictionary: codes are directly comparable.
	var shared []int64
	for _, v := range []string{"fig", "apple", "zebra", "pear"} {
		c, _ := buildDict.Code(v)
		shared = append(shared, c)
	}
	got := append([]int(nil), tbl.ProbeDict(buildDict, shared, sc)...)
	want := []int{1, 3} // apple, pear
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("shared-dict probe kept %v, want %v", got, want)
	}

	// Distinct dictionaries: values must be translated, not raw codes.
	// probeDict code 0 = "apple" (match), 1 = "banana" (no), 2 = "pear"
	// (match), 3 = "quince" (no) — raw code equality would get this
	// wrong because "banana" shares code 1 with build "fig".
	probe := []int64{0, 1, 2, 3, 2}
	got = append([]int(nil), tbl.ProbeDict(probeDict, probe, sc)...)
	want = []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("translated probe kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("translated probe kept %v, want %v", got, want)
		}
	}

	// Missing dictionaries on either side match nothing.
	bare := NewRadixTable(0)
	bare.AddBatch(shared)
	if kept := bare.ProbeDict(probeDict, probe, sc); len(kept) != 0 {
		t.Fatalf("probe of int-keyed table with dict codes kept %v, want none", kept)
	}
}

func TestGetLikeAndGatherDictCodes(t *testing.T) {
	dict := storage.NewDictionary([]string{"a", "b", "c"})
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.Int64Col},
		storage.Column{Name: "tag", Type: storage.StringCol},
	)
	in := &storage.Block{
		Header: storage.BlockHeader{Rows: 5},
		Schema: schema,
		Vectors: []storage.ColumnVector{
			{Ints: []int64{10, 11, 12, 13, 14}},
			{Codes: []int64{2, 0, 1, 2, 0}, Dict: dict},
		},
	}
	p := NewBlockPool()
	out := gather(p, in, []int{0, 2, 4})
	if out.NumRows() != 3 {
		t.Fatalf("gathered %d rows, want 3", out.NumRows())
	}
	v := &out.Vectors[1]
	if v.Strings != nil || v.Codes == nil || v.Dict != dict {
		t.Fatal("gathered string column should stay dictionary-coded with the shared dict")
	}
	wantCodes := []int64{2, 1, 0}
	for i, c := range v.Codes {
		if c != wantCodes[i] {
			t.Fatalf("gathered codes %v, want %v", v.Codes, wantCodes)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("gathered block invalid: %v", err)
	}

	// Fused single-column gather over the coded column.
	slim := storage.MustSchema(storage.Column{Name: "tag", Type: storage.StringCol})
	fused := GatherFused(p, in, slim, 1, []int{1, 3})
	if fused.NumRows() != 2 || fused.Vectors[0].Codes == nil || fused.Vectors[0].Dict != dict {
		t.Fatal("fused gather lost the dictionary coding")
	}
	if fused.Vectors[0].Codes[0] != 0 || fused.Vectors[0].Codes[1] != 2 {
		t.Fatalf("fused gather codes %v, want [0 2]", fused.Vectors[0].Codes)
	}

	// Recycle and re-Get: the pooled block must flip representation to
	// match the new source (plain strings this time).
	p.Put(out)
	plain := &storage.Block{
		Header: storage.BlockHeader{Rows: 2},
		Schema: schema,
		Vectors: []storage.ColumnVector{
			{Ints: []int64{1, 2}},
			{Strings: []string{"x", "y"}},
		},
	}
	out2 := gather(p, plain, []int{1, 0})
	v2 := &out2.Vectors[1]
	if v2.Codes != nil || v2.Dict != nil || v2.Strings == nil {
		t.Fatal("recycled block did not flip back to plain strings")
	}
	if v2.Strings[0] != "y" || v2.Strings[1] != "x" {
		t.Fatalf("gathered strings %v, want [y x]", v2.Strings)
	}
}

func TestFilterDictCodes(t *testing.T) {
	dict := storage.NewDictionary([]string{"a", "b", "c"})
	v := &storage.ColumnVector{Codes: []int64{1, 0, 1, 2}, Dict: dict}
	eq := func(s string) plan.Predicate { return plan.Predicate{Kind: plan.PredStringEq, SOperand: s} }
	sel := FilterRange(eq("b"), v, 0, 4, make([]int, 4))
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Fatalf("dict filter kept %v, want [0 2]", sel)
	}
	if sel := FilterRange(eq("zzz"), v, 0, 4, make([]int, 4)); len(sel) != 0 {
		t.Fatalf("dict filter of absent operand kept %v, want none", sel)
	}
	// FilterRange over a sub-range emits absolute indices.
	if sel := FilterRange(eq("b"), v, 2, 4, make([]int, 2)); len(sel) != 1 || sel[0] != 2 {
		t.Fatalf("dict FilterRange kept %v, want [2]", sel)
	}
}
