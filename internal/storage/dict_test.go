package storage

import (
	"sort"
	"testing"
)

func TestDictionaryOrderPreserving(t *testing.T) {
	d := NewDictionary([]string{"pear", "apple", "pear", "zebra", "apple", "fig"})
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4 distinct values", d.Len())
	}
	// Codes must follow lexicographic order of values.
	want := []string{"apple", "fig", "pear", "zebra"}
	for i, v := range want {
		c, ok := d.Code(v)
		if !ok || c != int64(i) {
			t.Fatalf("Code(%q) = (%d, %v), want (%d, true)", v, c, ok, i)
		}
		if got := d.Value(int64(i)); got != v {
			t.Fatalf("Value(%d) = %q, want %q", i, got, v)
		}
	}
	if _, ok := d.Code("missing"); ok {
		t.Fatal("Code of absent value reported present")
	}
	if v := d.Value(99); v != "" {
		t.Fatalf("Value(99) = %q, want empty", v)
	}
	var nilDict *Dictionary
	if nilDict.Len() != 0 || nilDict.Value(0) != "" {
		t.Fatal("nil dictionary accessors must be safe")
	}
}

// TestDictRoundTrip is the check.sh dictionary smoke: generate a
// relation with a dict-encoded string column, verify blocks validate,
// codes decode back to the original strings, and code comparisons agree
// with string comparisons (the order-preserving property every integer
// kernel over codes relies on).
func TestDictRoundTrip(t *testing.T) {
	g := NewGenerator(7)
	plain, err := g.Relation("r_plain", 500, 128, []GenSpec{
		{Column: Column{Name: "id", Type: Int64Col}, Sequential: true},
		{Column: Column{Name: "tag", Type: StringCol}, Cardinality: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGenerator(7)
	coded, err := g2.Relation("r_coded", 500, 128, []GenSpec{
		{Column: Column{Name: "id", Type: Int64Col}, Sequential: true},
		{Column: Column{Name: "tag", Type: StringCol}, Cardinality: 17, DictEncode: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ci := coded.Schema.ColumnIndex("tag")
	for bi, b := range coded.Blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		v := &b.Vectors[ci]
		if v.Codes == nil || v.Dict == nil || v.Strings != nil {
			t.Fatalf("block %d tag column not dictionary-coded", bi)
		}
		got := DecodeStrings(v)
		want := plain.Blocks[bi].Vectors[ci].Strings
		if len(got) != len(want) {
			t.Fatalf("block %d decoded %d rows, want %d", bi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block %d row %d decoded %q, want %q", bi, i, got[i], want[i])
			}
		}
		// Order preservation: code comparisons == string comparisons.
		for i := 1; i < len(v.Codes); i++ {
			cs := v.Codes[i-1] < v.Codes[i]
			ss := want[i-1] < want[i]
			if cs != ss {
				t.Fatalf("block %d rows %d,%d: code order %v, string order %v", bi, i-1, i, cs, ss)
			}
		}
	}
	// Sorting codes and sorting strings must agree end to end.
	v := &coded.Blocks[0].Vectors[ci]
	codes := append([]int64(nil), v.Codes...)
	strs := append([]string(nil), plain.Blocks[0].Vectors[ci].Strings...)
	sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
	sort.Strings(strs)
	for i := range codes {
		if v.Dict.Value(codes[i]) != strs[i] {
			t.Fatalf("sorted position %d: decoded %q, want %q", i, v.Dict.Value(codes[i]), strs[i])
		}
	}
}

func TestValidateRejectsBadCodes(t *testing.T) {
	d := NewDictionary([]string{"a", "b"})
	schema := MustSchema(Column{Name: "tag", Type: StringCol})
	b := &Block{
		Header:  BlockHeader{Rows: 2},
		Schema:  schema,
		Vectors: []ColumnVector{{Codes: []int64{0, 5}, Dict: d}},
	}
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range dictionary code")
	}
	b.Vectors[0] = ColumnVector{Codes: []int64{0, 1}}
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted codes without a dictionary")
	}
	b.Vectors[0] = ColumnVector{Codes: []int64{0, 1}, Dict: d}
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate rejected well-formed coded column: %v", err)
	}
}

// DecodeStrings materializes the string values of a (possibly coded)
// string vector, for the round-trip check.
func DecodeStrings(v *ColumnVector) []string {
	if v.Strings != nil {
		out := make([]string, len(v.Strings))
		copy(out, v.Strings)
		return out
	}
	out := make([]string, len(v.Codes))
	for i, c := range v.Codes {
		out[i] = v.Dict.Value(c)
	}
	return out
}
