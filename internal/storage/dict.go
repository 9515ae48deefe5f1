package storage

import (
	"fmt"
	"sort"
)

// Dictionary is an order-preserving string dictionary shared by every
// block of a relation's dictionary-encoded column. Values are stored
// sorted, so code order equals lexicographic string order: a sort or
// range comparison over codes is exactly a sort or range comparison
// over the decoded strings, which is what lets the engine run string
// select/build/probe/sort through its integer kernels unchanged.
//
// A Dictionary is immutable after construction, so concurrent readers
// (worker goroutines decoding or translating codes) need no locking.
type Dictionary struct {
	values []string
	codes  map[string]int64
}

// NewDictionary builds a dictionary over the distinct values of vals.
// The input need not be sorted or deduplicated.
func NewDictionary(vals []string) *Dictionary {
	seen := make(map[string]struct{}, len(vals))
	distinct := make([]string, 0, len(vals))
	for _, v := range vals {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			distinct = append(distinct, v)
		}
	}
	sort.Strings(distinct)
	d := &Dictionary{values: distinct, codes: make(map[string]int64, len(distinct))}
	for i, v := range distinct {
		d.codes[v] = int64(i)
	}
	return d
}

// Len returns the number of distinct values.
func (d *Dictionary) Len() int {
	if d == nil {
		return 0
	}
	return len(d.values)
}

// Code returns the code of v and whether v is in the dictionary.
func (d *Dictionary) Code(v string) (int64, bool) {
	if d == nil {
		return 0, false
	}
	c, ok := d.codes[v]
	return c, ok
}

// Value decodes one code. Out-of-range codes decode to "".
func (d *Dictionary) Value(c int64) string {
	if d == nil || c < 0 || c >= int64(len(d.values)) {
		return ""
	}
	return d.values[c]
}

// EncodeColumn rewrites the named string column of every block in rel to
// its dictionary-coded representation: one relation-wide dictionary, a
// Codes vector per block, and the plain Strings vector dropped. It is a
// no-op on already-coded columns and errors on non-string columns.
func EncodeColumn(rel *Relation, name string) error {
	ci := rel.Schema.ColumnIndex(name)
	if ci < 0 {
		return fmt.Errorf("storage: relation %q has no column %q", rel.Name, name)
	}
	if rel.Schema.Columns[ci].Type != StringCol {
		return fmt.Errorf("storage: column %q of %q is %s, not string",
			name, rel.Name, rel.Schema.Columns[ci].Type)
	}
	for _, b := range rel.Blocks {
		if b.Vectors[ci].Codes != nil {
			return nil // already encoded
		}
	}
	var all []string
	for _, b := range rel.Blocks {
		all = append(all, b.Vectors[ci].Strings...)
	}
	d := NewDictionary(all)
	for _, b := range rel.Blocks {
		v := &b.Vectors[ci]
		codes := make([]int64, len(v.Strings))
		for i, s := range v.Strings {
			codes[i], _ = d.Code(s)
		}
		v.Codes = codes
		v.Dict = d
		v.Strings = nil
	}
	return nil
}
