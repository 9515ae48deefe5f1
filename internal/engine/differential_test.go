package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Differential tests: the exec-kernel runners and the per-row reference
// (live_ref_test.go) must produce identical result blocks for every
// operator, across all three column types and every predicate kind.
// Select, probe, and sort compare exact row order (both paths are
// order-preserving; sort breaks key ties by row index on both paths);
// aggregate+finalize compares the group map, since finalize emits
// groups in table-iteration order.

// testRun builds a run of lv through the engine's own constructor, with
// op states wired for query 0 over p.
func testRun(lv *Live, p *plan.Plan) (*liveRun, *QueryState) {
	lr := lv.newRun()
	q := newQueryState(0, p, 0)
	lr.states[q.ID] = lr.getOpStates(len(p.Ops))
	return lr, q
}

// runBlock runs one work order of op over in on lr's runners: the exec
// kernels, or the reference when lr's Live has one installed.
func runBlock(lr *liveRun, q *QueryState, op *plan.Operator, in *storage.Block) int {
	runners := &kernelRunners
	if lr.live.reference != nil {
		runners = lr.live.reference
	}
	return runners[kernelOf(op.Type)](lr, q, op, lr.opState(q.ID, op.ID), in)
}

// lastOut returns op's most recent output block in a testRun.
func lastOut(lr *liveRun, op *plan.Operator) *storage.Block {
	st := lr.opState(0, op.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.outputs) == 0 {
		return nil
	}
	return st.outputs[len(st.outputs)-1]
}

// diffRun drives one query's work orders through the exec kernels (lr,
// on an engine configured by cfg) and through the reference (ref) side
// by side.
type diffRun struct {
	q       *QueryState
	lr, ref *liveRun
}

func newDiffRun(p *plan.Plan, cfg LiveConfig) *diffRun {
	lr, q := testRun(NewLive(nil, cfg), p)
	refLive := NewLive(nil, LiveConfig{})
	useReference(refLive)
	ref, _ := testRun(refLive, p)
	return &diffRun{q: q, lr: lr, ref: ref}
}

// step runs one work order of op over in on both paths and returns the
// rows each produced.
func (d *diffRun) step(op *plan.Operator, in *storage.Block) (got, want int) {
	return runBlock(d.lr, d.q, op, in), runBlock(d.ref, d.q, op, in)
}

// requireSame steps op over in and fails unless both paths produced the
// same row count and identical last output blocks.
func (d *diffRun) requireSame(t *testing.T, label string, op *plan.Operator, in *storage.Block) {
	t.Helper()
	if got, want := d.step(op, in); got != want {
		t.Fatalf("%s: kernels produced %d rows, reference %d", label, got, want)
	}
	requireBlocksEqual(t, label, lastOut(d.lr, op), lastOut(d.ref, op))
}

// requireSameGroups finalizes on both paths and compares the group maps.
func (d *diffRun) requireSameGroups(t *testing.T, label string, fin *plan.Operator) {
	t.Helper()
	if got, want := d.step(fin, nil); got != want {
		t.Fatalf("%s: kernels finalized %d groups, reference %d", label, got, want)
	}
	got, want := groupsOf(t, lastOut(d.lr, fin)), groupsOf(t, lastOut(d.ref, fin))
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d groups", label, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: group %d = %v kernels, %v reference", label, k, got[k], v)
		}
	}
}

var diffSchema = storage.MustSchema(
	storage.Column{Name: "key", Type: storage.Int64Col},
	storage.Column{Name: "val", Type: storage.Float64Col},
	storage.Column{Name: "tag", Type: storage.StringCol},
)

// diffBlock generates one random mixed-type block: an int64 key column
// with duplicates and gaps, a float column, and a string column.
func diffBlock(rng *rand.Rand, rows int) *storage.Block {
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	for i := 0; i < rows; i++ {
		// Sparse key space: duplicates are common, many keys absent.
		ints[i] = int64(rng.Intn(40)) * 3
		floats[i] = rng.Float64() * 100
		strs[i] = fmt.Sprintf("v%d", rng.Intn(6))
	}
	return &storage.Block{
		Header:  storage.BlockHeader{BlockID: rng.Intn(100), Relation: "diff", Rows: rows},
		Schema:  diffSchema,
		Vectors: []storage.ColumnVector{{Ints: ints}, {Floats: floats}, {Strings: strs}},
	}
}

// requireBlocksEqual fails the test unless a and b hold identical rows
// in identical order (schema compared structurally, not by pointer).
func requireBlocksEqual(t *testing.T, label string, a, b *storage.Block) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("%s: one block nil (%v vs %v)", label, a, b)
		}
		return
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: %d rows vs %d rows", label, a.NumRows(), b.NumRows())
	}
	if a.Schema.NumColumns() != b.Schema.NumColumns() {
		t.Fatalf("%s: %d cols vs %d cols", label, a.Schema.NumColumns(), b.Schema.NumColumns())
	}
	for ci, col := range a.Schema.Columns {
		if b.Schema.Columns[ci].Type != col.Type {
			t.Fatalf("%s: column %d type mismatch", label, ci)
		}
		av, bv := &a.Vectors[ci], &b.Vectors[ci]
		for r := 0; r < a.NumRows(); r++ {
			switch col.Type {
			case storage.Int64Col:
				if av.Ints[r] != bv.Ints[r] {
					t.Fatalf("%s: col %d row %d: %d vs %d", label, ci, r, av.Ints[r], bv.Ints[r])
				}
			case storage.Float64Col:
				if av.Floats[r] != bv.Floats[r] {
					t.Fatalf("%s: col %d row %d: %v vs %v", label, ci, r, av.Floats[r], bv.Floats[r])
				}
			case storage.StringCol:
				if as, bs := stringAt(av, r), stringAt(bv, r); as != bs {
					t.Fatalf("%s: col %d row %d: %q vs %q", label, ci, r, as, bs)
				}
			}
		}
	}
}

// stringAt reads row r of a string column in either representation, so
// block comparisons are indifferent to dictionary coding.
func stringAt(v *storage.ColumnVector, r int) string {
	if v.Strings != nil {
		return v.Strings[r]
	}
	return v.Dict.Value(v.Codes[r])
}

// diffDict covers every tag value diffBlock emits; sharing one instance
// across blocks mirrors the storage layer's per-relation dictionary.
// altDict holds the same values under different codes (extra entries
// shift every shared value's code), so a probe comparing raw codes
// across the two dictionaries would match the wrong rows.
var (
	diffDict = storage.NewDictionary([]string{"v0", "v1", "v2", "v3", "v4", "v5"})
	altDict  = storage.NewDictionary([]string{"a0", "v0", "v1", "v2", "v3", "v4", "v5", "zz"})
)

// encodeTagWith rewrites a diffBlock's tag column to dictionary codes
// under the given dictionary, in place.
func encodeTagWith(b *storage.Block, dict *storage.Dictionary) *storage.Block {
	v := &b.Vectors[2]
	codes := make([]int64, len(v.Strings))
	for i, s := range v.Strings {
		c, ok := dict.Code(s)
		if !ok {
			panic("encodeTagWith: tag value missing from dictionary")
		}
		codes[i] = c
	}
	v.Codes, v.Dict, v.Strings = codes, dict, nil
	return b
}

// diffPredicates enumerates every predicate kind over every column
// type, plus the fallback cases (no predicate, missing column).
func diffPredicates() []plan.Predicate {
	return []plan.Predicate{
		{Kind: plan.PredIntLess, Column: "key", Operand: 60},
		{Kind: plan.PredIntGreaterEq, Column: "key", Operand: 45},
		{Kind: plan.PredIntEq, Column: "key", Operand: 39},
		{Kind: plan.PredFloatLess, Column: "val", FOperand: 50},
		{Kind: plan.PredStringEq, Column: "tag", SOperand: "v3"},
		{Kind: plan.PredNone}, // selectivity fallback
		{Kind: plan.PredIntLess, Column: "nosuch", Operand: 10},    // missing column fallback
		{Kind: plan.PredIntLess, Column: "val", Operand: 10},       // type-mismatched column
		{Kind: plan.PredStringEq, Column: "key", SOperand: "v1"},   // string pred on int column
		{Kind: plan.PredIntEq, Column: "key", Operand: 1 << 40},    // matches nothing
		{Kind: plan.PredIntGreaterEq, Column: "key", Operand: -10}, // matches everything
	}
}

func TestDifferentialSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for pi, pred := range diffPredicates() {
		for _, rows := range []int{0, 1, 257, 1000} {
			in := diffBlock(rng, rows)
			op := &plan.Operator{Type: plan.Select, Pred: pred, Selectivity: 0.4, Columns: []string{"key"}}
			newDiffRun(singleOpPlan(op), LiveConfig{}).requireSame(t, fmt.Sprintf("select pred#%d rows=%d", pi, rows), op, in)
		}
	}
}

// singleOpPlan wraps one operator in a minimal valid plan.
func singleOpPlan(op *plan.Operator) *plan.Plan {
	b := plan.NewBuilder("diff")
	b.Add(op)
	return b.MustBuild()
}

// joinDiffPlan builds scan -> build -> probe keyed on col and returns
// (plan, build op, probe op).
func joinDiffPlan(col string) (*plan.Plan, *plan.Operator, *plan.Operator) {
	b := plan.NewBuilder("diff-join")
	scan := b.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"diff"}})
	build := b.Add(&plan.Operator{Type: plan.BuildHash, Columns: []string{col}})
	b.ConnectAuto(scan, build)
	probe := b.Add(&plan.Operator{Type: plan.ProbeHash, Columns: []string{col}})
	b.Connect(build, probe, false)
	return b.MustBuild(), build, probe
}

func TestDifferentialBuildProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for round := 0; round < 20; round++ {
		p, buildOp, probeOp := joinDiffPlan("key")
		d := newDiffRun(p, LiveConfig{})
		// Build from several blocks; the probe side shares only part of
		// the key space (diffBlock keys are multiples of 3 in [0,120)).
		for b := 0; b < 1+rng.Intn(3); b++ {
			d.requireSame(t, fmt.Sprintf("build round %d", round), buildOp, diffBlock(rng, rng.Intn(400)))
		}
		for b := 0; b < 2; b++ {
			probeBlk := diffBlock(rng, rng.Intn(400))
			// Inject keys guaranteed absent from the build side.
			for i := range probeBlk.Vectors[0].Ints {
				if rng.Intn(4) == 0 {
					probeBlk.Vectors[0].Ints[i] = int64(1000 + rng.Intn(50))
				}
			}
			d.requireSame(t, fmt.Sprintf("probe round %d", round), probeOp, probeBlk)
		}
	}
}

// aggDiffPlan builds scan -> aggregate(col) -> finalize.
func aggDiffPlan(col string) (*plan.Plan, *plan.Operator, *plan.Operator) {
	b := plan.NewBuilder("diff-agg")
	scan := b.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"diff"}})
	agg := b.Add(&plan.Operator{Type: plan.Aggregate, Columns: []string{col}})
	b.ConnectAuto(scan, agg)
	fin := b.Add(&plan.Operator{Type: plan.FinalizeAggregate})
	b.ConnectAuto(agg, fin)
	return b.MustBuild(), agg, fin
}

// groupsOf reads a finalize output block into a key->value map.
func groupsOf(t *testing.T, b *storage.Block) map[int64]float64 {
	t.Helper()
	if b == nil {
		t.Fatal("no finalize output")
	}
	m := make(map[int64]float64, b.NumRows())
	for i := 0; i < b.NumRows(); i++ {
		m[b.Vectors[0].Ints[i]] = b.Vectors[1].Floats[i]
	}
	return m
}

func TestDifferentialAggregateFinalize(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for round := 0; round < 20; round++ {
		p, aggOp, finOp := aggDiffPlan("key")
		d := newDiffRun(p, LiveConfig{})
		label := fmt.Sprintf("round %d", round)
		for b := 0; b < 1+rng.Intn(4); b++ {
			d.requireSame(t, label, aggOp, diffBlock(rng, rng.Intn(500)))
		}
		d.requireSameGroups(t, label, finOp)
	}
	// An aggregate that never saw a row finalizes to zero groups.
	p, _, finOp := aggDiffPlan("key")
	d := newDiffRun(p, LiveConfig{})
	d.requireSameGroups(t, "empty aggregate", finOp)
	if rows := lastOut(d.lr, finOp).NumRows(); rows != 0 {
		t.Fatalf("finalize over an empty aggregate produced %d groups", rows)
	}
}

func TestDifferentialSort(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	op := &plan.Operator{Type: plan.Sort, Columns: []string{"key"}}
	p := singleOpPlan(op)
	for _, rows := range []int{0, 1, 2, 100, 1000} {
		// Exact order: duplicate keys are broken by row index on both
		// paths, so the full permutation must agree.
		newDiffRun(p, LiveConfig{}).requireSame(t, fmt.Sprintf("sort rows=%d", rows), op, diffBlock(rng, rows))
	}
}

// TestDifferentialFuzz drives randomized blocks through every kernel on
// both paths in one go: random sizes (including empty), duplicate and
// missing join keys, every predicate kind, mixed column types.
func TestDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	preds := diffPredicates()
	for round := 0; round < 60; round++ {
		rows := rng.Intn(600)
		if rng.Intn(10) == 0 {
			rows = 0
		}
		in := diffBlock(rng, rows)

		pred := preds[rng.Intn(len(preds))]
		if pred.Kind == plan.PredIntLess && rng.Intn(2) == 0 {
			pred.Operand = int64(rng.Intn(140))
		}
		selOp := &plan.Operator{Type: plan.Select, Pred: pred, Selectivity: rng.Float64(), Columns: []string{"key"}}
		newDiffRun(singleOpPlan(selOp), LiveConfig{}).requireSame(t, fmt.Sprintf("fuzz select %d", round), selOp, in)

		jp, buildOp, probeOp := joinDiffPlan("key")
		j := newDiffRun(jp, LiveConfig{})
		j.step(buildOp, diffBlock(rng, rng.Intn(300)))
		j.requireSame(t, fmt.Sprintf("fuzz probe %d", round), probeOp, in)

		ap, aggOp, finOp := aggDiffPlan("key")
		a := newDiffRun(ap, LiveConfig{})
		a.step(aggOp, in)
		a.requireSameGroups(t, fmt.Sprintf("fuzz aggregate %d", round), finOp)

		sortOp := &plan.Operator{Type: plan.Sort, Columns: []string{"key"}}
		newDiffRun(singleOpPlan(sortOp), LiveConfig{}).requireSame(t, fmt.Sprintf("fuzz sort %d", round), sortOp, in)
	}
}

// TestProbePrefersBuildHashChild is the regression test for the
// build-child selection bug: a probe whose child list carries another
// blocking child (a probe-side Sort) BEFORE the BuildHash must still
// probe the BuildHash's table. The old loop broke on the first blocking
// child and silently probed an empty state, matching nothing.
func TestProbePrefersBuildHashChild(t *testing.T) {
	for _, mode := range []string{"reference", "vector"} {
		t.Run(mode, func(t *testing.T) {
			b := plan.NewBuilder("multi-child-probe")
			scan1 := b.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"probe"}})
			sortOp := b.Add(&plan.Operator{Type: plan.Sort, Columns: []string{"key"}})
			b.ConnectAuto(scan1, sortOp)
			scan2 := b.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"build"}})
			buildOp := b.Add(&plan.Operator{Type: plan.BuildHash, Columns: []string{"key"}})
			b.ConnectAuto(scan2, buildOp)
			probeOp := b.Add(&plan.Operator{Type: plan.ProbeHash, Columns: []string{"key"}})
			// The sorted probe side connects first, so the Sort (blocking,
			// not a BuildHash) precedes the BuildHash in Children().
			b.Connect(sortOp, probeOp, false)
			b.Connect(buildOp, probeOp, false)
			p := b.MustBuild()

			if got := p.Ops[probeOp.ID].Children()[0].Child.Type; got != plan.Sort {
				t.Fatalf("test setup: first probe child is %v, want Sort", got)
			}

			lv := NewLive(nil, LiveConfig{})
			if mode == "reference" {
				useReference(lv)
			}
			lr, q := testRun(lv, p)
			keys := []int64{1, 2, 3, 4, 5, 6, 7, 8}
			schema := storage.MustSchema(storage.Column{Name: "key", Type: storage.Int64Col})
			blk := &storage.Block{
				Header:  storage.BlockHeader{Relation: "build", Rows: len(keys)},
				Schema:  schema,
				Vectors: []storage.ColumnVector{{Ints: keys}},
			}
			runBlock(lr, q, buildOp, blk)
			// Every probe key was built, so every row must match.
			if matched := runBlock(lr, q, probeOp, blk); matched != len(keys) {
				t.Fatalf("probe matched %d of %d rows: build-side child selection picked the wrong child", matched, len(keys))
			}
		})
	}
}

// --- Dictionary strings, radix probe, morsels, fusion. Same contract
// as above: the kernels must agree with the reference exactly, for any
// morsel count.

func TestDifferentialSelectDictString(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for _, operand := range []string{"v3", "v0", "zzz"} {
		for _, rows := range []int{0, 1, 257, 1000} {
			in := encodeTagWith(diffBlock(rng, rows), diffDict)
			op := &plan.Operator{Type: plan.Select, Pred: plan.Predicate{Kind: plan.PredStringEq, Column: "tag", SOperand: operand}}
			newDiffRun(singleOpPlan(op), LiveConfig{}).requireSame(t, fmt.Sprintf("dict select %q rows=%d", operand, rows), op, in)
		}
	}
}

func TestDifferentialSortDictKey(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	op := &plan.Operator{Type: plan.Sort, Columns: []string{"tag"}}
	p := singleOpPlan(op)
	for _, rows := range []int{0, 1, 2, 100, 1000} {
		// The reference compares decoded strings, the kernels sort codes;
		// the dictionary is sorted, so the exact permutation (including
		// row-index tie-breaks) must agree.
		in := encodeTagWith(diffBlock(rng, rows), diffDict)
		newDiffRun(p, LiveConfig{}).requireSame(t, fmt.Sprintf("dict sort rows=%d", rows), op, in)
	}
}

func TestDifferentialBuildProbeDictKey(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for round := 0; round < 10; round++ {
		for _, pd := range []*storage.Dictionary{diffDict, altDict} {
			p, buildOp, probeOp := joinDiffPlan("tag")
			d := newDiffRun(p, LiveConfig{})
			for b := 0; b < 1+rng.Intn(3); b++ {
				blk := encodeTagWith(diffBlock(rng, rng.Intn(400)), diffDict)
				// Drop some tag values from the build side so probes miss.
				for i := range blk.Vectors[2].Codes {
					if blk.Vectors[2].Codes[i] >= 4 {
						blk.Vectors[2].Codes[i] = 0
					}
				}
				d.step(buildOp, blk)
			}
			probeBlk := encodeTagWith(diffBlock(rng, rng.Intn(400)), pd)
			d.requireSame(t, fmt.Sprintf("dict probe round %d shared=%v", round, pd == diffDict), probeOp, probeBlk)
		}
	}
}

// TestDifferentialProbePartitioned pushes the probe batch past
// partitionedProbeMin so the kernels take the radix-partitioned probe,
// and compares it against the reference map probe.
func TestDifferentialProbePartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	p, buildOp, probeOp := joinDiffPlan("key")
	d := newDiffRun(p, LiveConfig{})
	d.step(buildOp, diffBlock(rng, 2000))
	probeBlk := diffBlock(rng, 6000)
	for i := range probeBlk.Vectors[0].Ints {
		if rng.Intn(3) == 0 {
			probeBlk.Vectors[0].Ints[i] = int64(1000 + rng.Intn(100))
		}
	}
	d.requireSame(t, "partitioned probe", probeOp, probeBlk)
}

// morselDiffRun is a diffRun whose kernel engine splits work orders 4
// ways with the given number of helper threads.
func morselDiffRun(p *plan.Plan, helpers int) *diffRun {
	return newDiffRun(p, LiveConfig{Threads: helpers + 1, Morsels: 4, Metrics: metrics.NewRegistry()})
}

// TestDifferentialMorsels runs large select, probe, and sort work
// orders split across concurrent morsels and requires bit-identical
// output to the reference — including sort tie-breaks across morsel
// boundaries (diffBlock has 40 distinct keys over 40000 rows, so every
// key's run of duplicates spans several morsel ranges).
func TestDifferentialMorsels(t *testing.T) {
	const rows = 40000
	rng := rand.New(rand.NewSource(909))
	in := diffBlock(rng, rows)

	selOp := &plan.Operator{Type: plan.Select, Pred: plan.Predicate{Kind: plan.PredIntLess, Column: "key", Operand: 60}}
	d := morselDiffRun(singleOpPlan(selOp), 3)
	d.requireSame(t, "morsel select", selOp, in)
	if d.lr.live.instr.morselSplits.Value() == 0 {
		t.Fatal("morsel select did not split: the differential exercised nothing")
	}

	jp, buildOp, probeOp := joinDiffPlan("key")
	j := morselDiffRun(jp, 3)
	j.step(buildOp, diffBlock(rng, 1500))
	j.requireSame(t, "morsel probe", probeOp, in)

	sortOp := &plan.Operator{Type: plan.Sort, Columns: []string{"key"}}
	sortPlan := singleOpPlan(sortOp)
	for _, helpers := range []int{1, 2, 3} {
		morselDiffRun(sortPlan, helpers).requireSame(t, fmt.Sprintf("morsel sort helpers=%d", helpers), sortOp, in)
	}
}

// TestDifferentialFusedSelect pins the fusion decision and its
// semantics: a select feeding a sole Aggregate parent emits only the
// aggregate's key column, and the aggregate result over the slim
// blocks matches the reference pipeline over full-width blocks. A
// select feeding a BuildHash whose probe draws its main input from the
// build must NOT fuse (the probe would read the slimmed block as its
// input).
func TestDifferentialFusedSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	in := diffBlock(rng, 2000)

	b := plan.NewBuilder("fused-agg")
	scan := b.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"diff"}})
	selOp := b.Add(&plan.Operator{Type: plan.Select, Pred: plan.Predicate{Kind: plan.PredIntLess, Column: "key", Operand: 60}})
	b.ConnectAuto(scan, selOp)
	aggOp := b.Add(&plan.Operator{Type: plan.Aggregate, Columns: []string{"key"}})
	b.ConnectAuto(selOp, aggOp)
	finOp := b.Add(&plan.Operator{Type: plan.FinalizeAggregate})
	b.ConnectAuto(aggOp, finOp)
	d := newDiffRun(b.MustBuild(), LiveConfig{})

	if got, want := d.step(selOp, in); got != want {
		t.Fatalf("fused select kept %d, reference kept %d", got, want)
	}
	slim := lastOut(d.lr, selOp)
	if slim.Schema.NumColumns() != 1 {
		t.Fatalf("select feeding a sole aggregate emitted %d columns, want fused single column", slim.Schema.NumColumns())
	}
	runBlock(d.lr, d.q, aggOp, slim)
	runBlock(d.ref, d.q, aggOp, lastOut(d.ref, selOp))
	d.requireSameGroups(t, "fused pipeline", finOp)

	// selectWidth runs the select of p on the kernels and returns the
	// column count of the block it emitted.
	selectWidth := func(p *plan.Plan, sel *plan.Operator) int {
		lr, q := testRun(NewLive(nil, LiveConfig{}), p)
		runBlock(lr, q, sel, in)
		return lastOut(lr, sel).Schema.NumColumns()
	}

	// Unsafe shape: probe's main (last) child is the build, so the probe
	// would draw the select's slimmed block as its input. Must stay wide.
	b2 := plan.NewBuilder("unfusable-build")
	scan2 := b2.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"diff"}})
	sel2 := b2.Add(&plan.Operator{Type: plan.Select, Pred: plan.Predicate{Kind: plan.PredIntLess, Column: "key", Operand: 60}})
	b2.ConnectAuto(scan2, sel2)
	build2 := b2.Add(&plan.Operator{Type: plan.BuildHash, Columns: []string{"key"}})
	b2.ConnectAuto(sel2, build2)
	probe2 := b2.Add(&plan.Operator{Type: plan.ProbeHash, Columns: []string{"key"}})
	b2.Connect(build2, probe2, false)
	if got := selectWidth(b2.MustBuild(), sel2); got != in.Schema.NumColumns() {
		t.Fatalf("select feeding a probed build emitted %d columns, want unfused %d", got, in.Schema.NumColumns())
	}

	// Safe build shape: the probe draws its main input elsewhere (the
	// build connects first), so the select→build edge may slim.
	b3 := plan.NewBuilder("fusable-build")
	scan3 := b3.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"diff"}})
	sel3 := b3.Add(&plan.Operator{Type: plan.Select, Pred: plan.Predicate{Kind: plan.PredIntLess, Column: "key", Operand: 60}})
	b3.ConnectAuto(scan3, sel3)
	build3 := b3.Add(&plan.Operator{Type: plan.BuildHash, Columns: []string{"key"}})
	b3.ConnectAuto(sel3, build3)
	scanP := b3.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"probe"}})
	probe3 := b3.Add(&plan.Operator{Type: plan.ProbeHash, Columns: []string{"key"}})
	b3.Connect(build3, probe3, false)
	b3.ConnectAuto(scanP, probe3)
	if got := selectWidth(b3.MustBuild(), sel3); got != 1 {
		t.Fatalf("select feeding an un-probed build emitted %d columns, want fused single column", got)
	}
}

// fuzzBlock decodes three bytes per row into a diffBlock-shaped block: a
// signed key, a value in [0, 100] and a tag v0..v5. coding%3 picks the
// tag representation: 0 plain strings, 1 coded under diffDict, 2 coded
// under diffDict on the build side and altDict on the probe side.
func fuzzBlock(data []byte, coding uint8, probe bool) *storage.Block {
	rows := len(data) / 3
	ints, floats, strs := make([]int64, rows), make([]float64, rows), make([]string, rows)
	for i := range ints {
		ints[i] = int64(int8(data[3*i]))
		floats[i] = float64(data[3*i+1]) / 2.55
		strs[i] = fmt.Sprintf("v%d", data[3*i+2]%6)
	}
	b := &storage.Block{
		Header:  storage.BlockHeader{Relation: "diff", Rows: rows},
		Schema:  diffSchema,
		Vectors: []storage.ColumnVector{{Ints: ints}, {Floats: floats}, {Strings: strs}},
	}
	switch coding % 3 {
	case 1:
		encodeTagWith(b, diffDict)
	case 2:
		if probe {
			encodeTagWith(b, altDict)
		} else {
			encodeTagWith(b, diffDict)
		}
	}
	return b
}

// FuzzLiveKernels holds every exec-kernel runner to the reference on
// fuzzer-chosen blocks: select, probe and sort must match in exact row
// order, aggregate+finalize in the group map. The fuzzer picks the
// block contents, a diffPredicates case and its operand, the tag's
// dictionary coding, and the join/sort/group column. The seed corpus is
// the differential suite's predicate cases at its block sizes.
func FuzzLiveKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(1234))
	for i, p := range diffPredicates() {
		operand := p.Operand
		switch p.Kind {
		case plan.PredFloatLess:
			operand = int64(p.FOperand)
		case plan.PredStringEq:
			operand = int64(p.SOperand[1] - '0')
		}
		for _, rows := range []int{0, 1, 257} {
			data := make([]byte, 3*rows)
			rng.Read(data)
			f.Add(data, uint8(i), operand, uint8(rows%3), uint8(i%3))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, predIdx uint8, operand int64, coding, keyCol uint8) {
		in := fuzzBlock(data, coding, true)
		preds := diffPredicates()
		pred := preds[int(predIdx)%len(preds)]
		switch pred.Kind {
		case plan.PredFloatLess:
			pred.FOperand = float64(operand)
		case plan.PredStringEq:
			pred.SOperand = fmt.Sprintf("v%d", operand)
		default:
			pred.Operand = operand
		}
		col := []string{"key", "tag", "val"}[keyCol%3]

		selOp := &plan.Operator{Type: plan.Select, Pred: pred, Selectivity: float64(uint8(operand)) / 1000, Columns: []string{"key"}}
		newDiffRun(singleOpPlan(selOp), LiveConfig{}).requireSame(t, "select", selOp, in)

		jp, buildOp, probeOp := joinDiffPlan(col)
		j := newDiffRun(jp, LiveConfig{})
		j.requireSame(t, "build", buildOp, fuzzBlock(data[:len(data)/2], coding, false))
		j.requireSame(t, "probe", probeOp, in)

		ap, aggOp, finOp := aggDiffPlan(col)
		a := newDiffRun(ap, LiveConfig{})
		a.requireSame(t, "aggregate", aggOp, in)
		a.requireSameGroups(t, "finalize", finOp)

		sortOp := &plan.Operator{Type: plan.Sort, Columns: []string{col}}
		newDiffRun(singleOpPlan(sortOp), LiveConfig{}).requireSame(t, "sort", sortOp, in)
	})
}
