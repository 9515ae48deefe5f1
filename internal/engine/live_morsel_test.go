package engine

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage"
)

func TestMorselSpanCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096, 40001} {
		for parts := 1; parts <= maxMorselParts; parts++ {
			prev := 0
			for p := 0; p < parts; p++ {
				lo, hi := morselSpan(p, parts, n)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d parts=%d morsel %d: span [%d,%d) after %d", n, parts, p, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d parts=%d: spans end at %d", n, parts, prev)
			}
		}
	}
}

func TestSplitPartsPolicy(t *testing.T) {
	lr := NewLive(nil, LiveConfig{Threads: 4, Morsels: 4}).newRun()
	cases := []struct{ n, want int }{
		{0, 1},
		{morselMinRows, 1},
		{2*morselMinRows - 1, 1},
		{2 * morselMinRows, 2},
		{3 * morselMinRows, 3},
		{100 * morselMinRows, 4}, // clamped to the run bound
	}
	for _, c := range cases {
		if got := lr.splitParts(c.n); got != c.want {
			t.Fatalf("splitParts(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	off := NewLive(nil, LiveConfig{Threads: 4, Morsels: 1}).newRun()
	if got := off.splitParts(1 << 20); got != 1 {
		t.Fatalf("splitParts with morsels off = %d, want 1", got)
	}
}

func TestAcquireHelpersNonBlocking(t *testing.T) {
	// Three threads: the gate starts with two helper tokens.
	lr := NewLive(nil, LiveConfig{Threads: 3, Morsels: 4}).newRun()
	if got := lr.acquireHelpers(3); got != 2 {
		t.Fatalf("acquired %d helpers from a 2-token gate, want 2", got)
	}
	if got := lr.acquireHelpers(1); got != 0 {
		t.Fatalf("acquired %d helpers from a drained gate, want 0", got)
	}
	lr.releaseHelpers(2)
	if got := lr.acquireHelpers(2); got != 2 {
		t.Fatalf("acquired %d helpers after release, want 2", got)
	}
	// A nil gate (morsels off) always yields zero helpers.
	off := NewLive(nil, LiveConfig{Threads: 1}).newRun()
	if got := off.acquireHelpers(3); got != 0 {
		t.Fatalf("nil gate yielded %d helpers, want 0", got)
	}
}

// morselCatalog builds a relation of large blocks (4 blocks of 8x
// morselMinRows rows), so every work order is split-eligible.
func morselCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	rows := 8 * morselMinRows
	gen := storage.NewGenerator(7)
	rel, err := gen.Relation("m", 4*rows, rows, []storage.GenSpec{
		{Column: storage.Column{Name: "id", Type: storage.Int64Col}, Sequential: true},
		{Column: storage.Column{Name: "key", Type: storage.Int64Col}, Cardinality: 64},
		{Column: storage.Column{Name: "val", Type: storage.Float64Col}, MinFloat: 0, MaxFloat: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	if err := cat.Register(rel); err != nil {
		t.Fatal(err)
	}
	return cat
}

// morselPlans covers the three morsel-split kernels end to end: a
// select->aggregate pipeline, a sort, and a self-join.
func morselPlans() []*plan.Plan {
	sel := plan.NewBuilder("m-selagg")
	scan := sel.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"m"}, EstBlocks: 4})
	s := sel.Add(&plan.Operator{
		Type: plan.Select, InputRelations: []string{"m"}, EstBlocks: 4,
		Pred: plan.Predicate{Kind: plan.PredIntLess, Column: "key", Operand: 32},
	})
	sel.ConnectAuto(scan, s)
	agg := sel.Add(&plan.Operator{Type: plan.Aggregate, InputRelations: []string{"m"}, EstBlocks: 4, Columns: []string{"key"}})
	sel.ConnectAuto(s, agg)
	fin := sel.Add(&plan.Operator{Type: plan.FinalizeAggregate, InputRelations: []string{"m"}, EstBlocks: 1})
	sel.ConnectAuto(agg, fin)

	srt := plan.NewBuilder("m-sort")
	scan2 := srt.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"m"}, EstBlocks: 4})
	so := srt.Add(&plan.Operator{Type: plan.Sort, InputRelations: []string{"m"}, EstBlocks: 4, Columns: []string{"key"}})
	srt.ConnectAuto(scan2, so)

	jn := plan.NewBuilder("m-join")
	scanB := jn.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"m"}, EstBlocks: 1})
	bld := jn.Add(&plan.Operator{Type: plan.BuildHash, InputRelations: []string{"m"}, EstBlocks: 1, Columns: []string{"key"}})
	jn.ConnectAuto(scanB, bld)
	scanP := jn.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"m"}, EstBlocks: 4})
	prb := jn.Add(&plan.Operator{Type: plan.ProbeHash, InputRelations: []string{"m"}, EstBlocks: 4, Columns: []string{"key"}})
	jn.Connect(bld, prb, false)
	jn.ConnectAuto(scanP, prb)

	return []*plan.Plan{sel.MustBuild(), srt.MustBuild(), jn.MustBuild()}
}

func morselArrivals() []Arrival {
	var a []Arrival
	for i, p := range morselPlans() {
		a = append(a, Arrival{Plan: p, At: float64(i) * 0.001})
	}
	return a
}

// TestLiveMorselsEndToEnd runs the same workload with morsels forced
// on (4-way splits on a 4-thread pool), morsels off, and on the per-row
// reference, and requires identical query results — morsel splitting
// is an execution detail, never a semantics change. It doubles as the
// -race smoke for concurrent morsels inside one work order.
func TestLiveMorselsEndToEnd(t *testing.T) {
	cat := morselCatalog(t)
	reg := metrics.NewRegistry()
	lvM := NewLive(cat, LiveConfig{Threads: 4, Morsels: 4, Metrics: reg})
	lvV := NewLive(cat, LiveConfig{Threads: 4, Morsels: 1})
	lvS := NewLive(cat, LiveConfig{Threads: 4})
	useReference(lvS)

	resM, err := lvM.Run(greedyTestSched{depth: 2}, morselArrivals())
	if err != nil {
		t.Fatal(err)
	}
	resV, err := lvV.Run(greedyTestSched{depth: 2}, morselArrivals())
	if err != nil {
		t.Fatal(err)
	}
	resS, err := lvS.Run(greedyTestSched{depth: 2}, morselArrivals())
	if err != nil {
		t.Fatal(err)
	}

	for _, other := range []*LiveResult{resV, resS} {
		if len(resM.OutputRows) != len(other.OutputRows) {
			t.Fatalf("query count differs: %d vs %d", len(resM.OutputRows), len(other.OutputRows))
		}
		for id, rows := range resM.OutputRows {
			if other.OutputRows[id] != rows {
				t.Fatalf("query %d: morsel run produced %d rows, reference produced %d", id, rows, other.OutputRows[id])
			}
		}
	}
	if resM.WorkOrders != resV.WorkOrders {
		t.Fatalf("morsels changed the work-order count: %d vs %d", resM.WorkOrders, resV.WorkOrders)
	}
	if splits := reg.Counter("live_morsel_splits").Value(); splits == 0 {
		t.Fatal("morsel run never split a work order; the end-to-end test exercised nothing")
	}
}

// TestLiveMorselsAutoDisable pins the auto policy: Morsels=0 resolves
// to min(4, Threads, GOMAXPROCS), so a single-thread pool never pays
// for gate tokens or split bookkeeping.
func TestLiveMorselsAutoDisable(t *testing.T) {
	lv := NewLive(nil, LiveConfig{Threads: 1})
	if lv.morsels != 1 {
		t.Fatalf("Threads=1 resolved morsels=%d, want 1", lv.morsels)
	}
	if lv2 := NewLive(nil, LiveConfig{Threads: 4, Morsels: 100}); lv2.morsels != maxMorselParts {
		t.Fatalf("Morsels=100 resolved %d, want clamp to %d", lv2.morsels, maxMorselParts)
	}
}
