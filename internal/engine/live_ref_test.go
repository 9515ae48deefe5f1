package engine

import (
	"sort"
	"sync"

	"repro/internal/plan"
	"repro/internal/storage"
)

// refExec is the per-row reference executor the exec kernels are held
// to. Installed as a Live's reference runners, it executes select,
// build, probe, aggregate, finalize and sort one row at a time: map
// hash and aggregate tables, sort.Slice, fresh allocations per work
// order, and string keys compared decoded (Dictionary.Value) so it never
// depends on the dictionary codes the kernels run on. Its hash and
// aggregate state is its own, keyed per (run, query, operator); output
// blocks flow through the engine's op states, so inputBlock feeds both
// paths the same way.
type refExec struct {
	mu     sync.Mutex
	states map[refKey]*refOpState
}

type refKey struct {
	run       *liveRun
	query, op int
}

type refOpState struct {
	mu      sync.Mutex
	hash    map[int64]int     // integer build keys → build rows
	hashStr map[string]int    // decoded string build keys → build rows
	agg     map[int64]float64 // group key → count
}

// useReference installs a fresh reference as lv's runners.
func useReference(lv *Live) *refExec {
	r := &refExec{states: make(map[refKey]*refOpState)}
	lv.reference = &[numKernels]blockRunner{
		passthroughKernel: (*liveRun).runPassthrough,
		selectKernel:      r.runSelect,
		buildKernel:       r.runBuild,
		probeKernel:       r.runProbe,
		aggregateKernel:   r.runAggregate,
		sortKernel:        r.runSort,
		finalizeKernel:    r.runFinalize,
	}
	return r
}

func (r *refExec) state(lr *liveRun, q *QueryState, op *plan.Operator) *refOpState {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := refKey{lr, q.ID, op.ID}
	s := r.states[k]
	if s == nil {
		s = &refOpState{hash: map[int64]int{}, hashStr: map[string]int{}, agg: map[int64]float64{}}
		r.states[k] = s
	}
	return s
}

func emitRef(st *liveOpState, out *storage.Block) {
	st.mu.Lock()
	st.outputs = append(st.outputs, out)
	st.mu.Unlock()
}

// refKeep evaluates a predicate on row i: a typed predicate over a
// column of the wrong type keeps nothing, PredNone keeps everything.
func refKeep(p plan.Predicate, v *storage.ColumnVector, i int) bool {
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
		if v.Strings != nil {
			return v.Strings[i] == p.SOperand
		}
		return v.Codes != nil && v.Dict != nil && v.Dict.Value(v.Codes[i]) == p.SOperand
	}
	return true
}

// projectRows materializes the given rows of a block with fresh
// allocations. A dictionary-coded column stays coded: the dictionary is
// relation-wide state, not something a projection re-derives.
func projectRows(in *storage.Block, rows []int) *storage.Block {
	out := &storage.Block{
		Header:  storage.BlockHeader{BlockID: in.Header.BlockID, Relation: in.Header.Relation, Rows: len(rows)},
		Schema:  in.Schema,
		Vectors: make([]storage.ColumnVector, len(in.Vectors)),
	}
	for ci := range in.Vectors {
		src, dst := &in.Vectors[ci], &out.Vectors[ci]
		for _, r := range rows {
			switch {
			case src.Ints != nil:
				dst.Ints = append(dst.Ints, src.Ints[r])
			case src.Floats != nil:
				dst.Floats = append(dst.Floats, src.Floats[r])
			case src.Codes != nil:
				dst.Codes, dst.Dict = append(dst.Codes, src.Codes[r]), src.Dict
			default:
				dst.Strings = append(dst.Strings, src.Strings[r])
			}
		}
	}
	return out
}

func (r *refExec) runSelect(lr *liveRun, q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	pred, col := selectPredicate(op, in)
	if col < 0 {
		return lr.runPassthrough(q, op, st, in)
	}
	var kept []int
	for i := 0; i < in.NumRows(); i++ {
		if refKeep(pred, &in.Vectors[col], i) {
			kept = append(kept, i)
		}
	}
	emitRef(st, projectRows(in, kept))
	return len(kept)
}

func (r *refExec) runBuild(lr *liveRun, q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	if col < 0 {
		return 0
	}
	keys, dict := keyVec(in, col)
	if keys == nil {
		return 0
	}
	s := r.state(lr, q, op)
	s.mu.Lock()
	for _, k := range keys {
		if dict == nil {
			s.hash[k]++
		} else {
			s.hashStr[dict.Value(k)]++
		}
	}
	s.mu.Unlock()
	emitRef(st, in)
	return len(keys)
}

func (r *refExec) runProbe(lr *liveRun, q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	col := keyColumn(op, in)
	if col < 0 {
		return 0
	}
	keys, dict := keyVec(in, col)
	if keys == nil {
		return 0
	}
	var matched []int
	if b := buildChild(op); b != nil {
		s := r.state(lr, q, b)
		s.mu.Lock()
		for i, k := range keys {
			if dict == nil && s.hash[k] > 0 || dict != nil && s.hashStr[dict.Value(k)] > 0 {
				matched = append(matched, i)
			}
		}
		s.mu.Unlock()
	}
	emitRef(st, projectRows(in, matched))
	return len(matched)
}

func (r *refExec) runAggregate(lr *liveRun, q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	var keys []int64
	if col := keyColumn(op, in); col >= 0 {
		keys, _ = keyVec(in, col)
	}
	s := r.state(lr, q, op)
	s.mu.Lock()
	defer s.mu.Unlock()
	if keys == nil {
		s.agg[0] += float64(in.NumRows())
		return 1
	}
	for _, k := range keys {
		s.agg[k]++
	}
	return len(s.agg)
}

func (r *refExec) runFinalize(lr *liveRun, q *QueryState, op *plan.Operator, st *liveOpState, _ *storage.Block) int {
	s := r.state(lr, q, op.Children()[0].Child)
	s.mu.Lock()
	var keys []int64
	var vals []float64
	for k, v := range s.agg {
		keys, vals = append(keys, k), append(vals, v)
	}
	s.mu.Unlock()
	emitRef(st, &storage.Block{
		Header:  storage.BlockHeader{Relation: "agg:" + q.Plan.QueryName, Rows: len(keys)},
		Schema:  aggOutSchema,
		Vectors: []storage.ColumnVector{{Ints: keys}, {Floats: vals}},
	})
	return len(keys)
}

func (r *refExec) runSort(lr *liveRun, q *QueryState, op *plan.Operator, st *liveOpState, in *storage.Block) int {
	var keys []int64
	var dict *storage.Dictionary
	if col := keyColumn(op, in); col >= 0 {
		keys, dict = keyVec(in, col)
	}
	if keys == nil {
		return lr.runPassthrough(q, op, st, in)
	}
	order := make([]int, in.NumRows())
	for i := range order {
		order[i] = i
	}
	// Ties order by row index: the same total order the kernels keep,
	// which is what lets the differential tests compare exact output.
	sort.Slice(order, func(a, b int) bool {
		ra, rb := order[a], order[b]
		if dict != nil {
			if sa, sb := dict.Value(keys[ra]), dict.Value(keys[rb]); sa != sb {
				return sa < sb
			}
		} else if keys[ra] != keys[rb] {
			return keys[ra] < keys[rb]
		}
		return ra < rb
	})
	emitRef(st, projectRows(in, order))
	return len(order)
}
