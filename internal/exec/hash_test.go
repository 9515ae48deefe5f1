package exec

import (
	"math/rand"
	"testing"
)

func TestCountTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := &CountTable{}
	ref := make(map[int64]int64)
	// Adversarial key mix: dense, sparse, negative, and zero keys, with
	// enough volume to force several regrowths.
	for i := 0; i < 5000; i++ {
		var k int64
		switch rng.Intn(4) {
		case 0:
			k = int64(rng.Intn(50))
		case 1:
			k = rng.Int63()
		case 2:
			k = -int64(rng.Intn(1000))
		default:
			k = 0
		}
		tbl.Add(k)
		ref[k]++
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("distinct keys = %d, want %d", tbl.Len(), len(ref))
	}
	if tbl.Total() != 5000 {
		t.Fatalf("total = %d, want 5000", tbl.Total())
	}
	for k, c := range ref {
		if got := tbl.Count(k); got != c {
			t.Fatalf("count(%d) = %d, want %d", k, got, c)
		}
	}
	for i := 0; i < 100; i++ {
		k := rng.Int63()
		if _, present := ref[k]; !present && tbl.Count(k) != 0 {
			t.Fatalf("count(%d) nonzero for absent key", k)
		}
	}
}

// TestCountTableProbeBatch probes a batch against the CountTable
// partitions of a join build side, the way the engine's probe does.
func TestCountTableProbeBatch(t *testing.T) {
	tbl := NewRadixTable(0)
	tbl.AddBatch([]int64{2, 4, 6, 2})
	keys := []int64{1, 2, 3, 4, 5, 6, 2}
	sel := tbl.ProbeRange(keys, 0, len(keys), make([]int, len(keys)))
	want := []int{1, 3, 5, 6}
	if len(sel) != len(want) {
		t.Fatalf("probe kept %v, want %v", sel, want)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("probe kept %v, want %v", sel, want)
		}
	}
	// Nil and empty tables match nothing.
	var nilT *RadixTable
	if got := nilT.ProbeBatchPartitioned(keys, &Scratch{}); len(got) != 0 {
		t.Fatalf("nil table matched %d keys", len(got))
	}
	if got := NewRadixTable(0).ProbeRange(keys, 0, len(keys), sel[:cap(sel)]); len(got) != 0 {
		t.Fatalf("empty table matched %d keys", len(got))
	}
}

func TestSumTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := NewSumTable(0)
	ref := make(map[int64]float64)
	for i := 0; i < 3000; i++ {
		k := int64(rng.Intn(200)) - 100
		v := rng.Float64()
		tbl.Add(k, v)
		ref[k] += v
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("distinct keys = %d, want %d", tbl.Len(), len(ref))
	}
	for k, s := range ref {
		if got := tbl.Sum(k); got != s {
			t.Fatalf("sum(%d) = %v, want %v", k, got, s)
		}
	}
	keys, sums := tbl.Export(nil, nil)
	if len(keys) != len(ref) || len(sums) != len(ref) {
		t.Fatalf("export %d/%d entries, want %d", len(keys), len(sums), len(ref))
	}
	for i, k := range keys {
		if ref[k] != sums[i] {
			t.Fatalf("export key %d has sum %v, want %v", k, sums[i], ref[k])
		}
	}
}

func TestSumTableAddOnes(t *testing.T) {
	tbl := NewSumTable(0)
	tbl.AddOnes([]int64{3, 3, 9})
	if got := tbl.Sum(3); got != 2 {
		t.Fatalf("sum(3) = %v, want 2", got)
	}
	if got := tbl.Sum(9); got != 1 {
		t.Fatalf("sum(9) = %v, want 1", got)
	}
	if tbl.Len() != 2 {
		t.Fatalf("len = %d, want 2", tbl.Len())
	}
}
