package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/plan"
)

func TestTPCHHas22ValidQueries(t *testing.T) {
	qs := TPCH(2)
	if len(qs) != 22 {
		t.Fatalf("TPCH returned %d queries, want 22", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.QueryName, err)
		}
		if q.Sink() == nil {
			t.Errorf("%s: no sink", q.QueryName)
		}
	}
}

func TestSSBHas13ValidQueries(t *testing.T) {
	qs := SSB(2)
	if len(qs) != 13 {
		t.Fatalf("SSB returned %d queries, want 13", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.QueryName, err)
		}
	}
}

func TestJOBHas113ValidQueries(t *testing.T) {
	qs := JOB()
	if len(qs) != 113 {
		t.Fatalf("JOB returned %d queries, want 113", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.QueryName, err)
		}
	}
}

func TestJOBHasDeepJoins(t *testing.T) {
	// The paper highlights that some JOB queries exceed 10 joins.
	maxJoins := 0
	for _, q := range JOB() {
		joins := 0
		for _, op := range q.Ops {
			switch op.Type {
			case plan.ProbeHash, plan.IndexNestedLoopJoin, plan.MergeJoin, plan.NestedLoopJoin:
				joins++
			}
		}
		if joins > maxJoins {
			maxJoins = joins
		}
	}
	if maxJoins < 10 {
		t.Fatalf("deepest JOB query has %d joins, want >= 10", maxJoins)
	}
}

func TestScaleFactorScalesWork(t *testing.T) {
	small := TPCH(2)
	big := TPCH(100)
	for i := range small {
		if big[i].TotalEstBlocks() <= small[i].TotalEstBlocks() {
			t.Errorf("%s: SF100 blocks %d not > SF2 blocks %d",
				small[i].QueryName, big[i].TotalEstBlocks(), small[i].TotalEstBlocks())
		}
	}
}

func TestPoolSplitDisjointAndComplete(t *testing.T) {
	pool, err := NewPool(BenchTPCH, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := len(pool.Train) + len(pool.Test)
	if want := 22 * len(TPCHScaleFactors); total != want {
		t.Fatalf("pool holds %d plans, want %d", total, want)
	}
	// The paper selects 50% per scale factor (rounded down) for
	// training; the split must be disjoint by plan identity.
	seen := map[*plan.Plan]bool{}
	for _, p := range pool.Train {
		seen[p] = true
	}
	for _, p := range pool.Test {
		if seen[p] {
			t.Fatal("plan appears in both train and test")
		}
	}
	if len(pool.Train) != 11*len(TPCHScaleFactors) {
		t.Fatalf("train split %d, want %d", len(pool.Train), 11*len(TPCHScaleFactors))
	}
}

func TestPoolDeterministicBySeed(t *testing.T) {
	a, _ := NewPool(BenchSSB, 9)
	b, _ := NewPool(BenchSSB, 9)
	for i := range a.Train {
		if a.Train[i].QueryName != b.Train[i].QueryName {
			t.Fatal("pool split not deterministic")
		}
	}
	c, _ := NewPool(BenchSSB, 10)
	same := true
	for i := range a.Train {
		if a.Train[i].QueryName != c.Train[i].QueryName {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical splits")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := NewPool(Benchmark("mysql"), 1); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := Plans(Benchmark("mysql"), 1); err == nil {
		t.Fatal("Plans: unknown benchmark must error")
	}
	for b, n := range map[Benchmark]int{BenchTPCH: 22, BenchSSB: 13, BenchJOB: 113} {
		if ps, err := Plans(b, 0.1); err != nil || len(ps) != n {
			t.Fatalf("Plans(%s): %d plans, err %v, want %d", b, len(ps), err, n)
		}
	}
}

func TestStreamingArrivalGaps(t *testing.T) {
	pool, _ := NewPool(BenchSSB, 1)
	rng := rand.New(rand.NewSource(1))
	const n, rate = 2000, 2.0
	arr := Streaming(pool.Train, n, rate, rng)
	if len(arr) != n {
		t.Fatalf("got %d arrivals", len(arr))
	}
	prev := 0.0
	sumGap := 0.0
	for _, a := range arr {
		if a.At < prev {
			t.Fatal("arrivals must be non-decreasing")
		}
		sumGap += a.At - prev
		prev = a.At
	}
	meanGap := sumGap / n
	if math.Abs(meanGap-1/rate) > 0.1 {
		t.Fatalf("mean gap %v, want ~%v", meanGap, 1/rate)
	}
}

func TestBatchArrivesAtZero(t *testing.T) {
	pool, _ := NewPool(BenchSSB, 1)
	rng := rand.New(rand.NewSource(1))
	for _, a := range Batch(pool.Train, 20, rng) {
		if a.At != 0 {
			t.Fatal("batch arrivals must be at time zero")
		}
	}
}

func TestStreamingClonesPlans(t *testing.T) {
	pool, _ := NewPool(BenchSSB, 1)
	rng := rand.New(rand.NewSource(1))
	arr := Streaming(pool.Train, 50, 1, rng)
	for _, a := range arr {
		for _, p := range pool.Train {
			if a.Plan == p {
				t.Fatal("workload must clone plans, not share them")
			}
		}
	}
}

func TestSyntheticCatalogCoversLeaves(t *testing.T) {
	plans := SSB(0.5)
	cat, err := SyntheticCatalog(plans, 512, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		for _, leaf := range p.Leaves() {
			for _, rel := range leaf.InputRelations {
				r, ok := cat.Relation(rel)
				if !ok {
					t.Fatalf("relation %q missing", rel)
				}
				if r.NumRows() == 0 {
					t.Fatalf("relation %q empty", rel)
				}
			}
		}
	}
}

func TestHashJoinEdgeSemantics(t *testing.T) {
	// Every ProbeHash in every benchmark must have exactly one
	// pipeline-breaking (build) input and one pipelining input.
	for _, qs := range [][]*plan.Plan{TPCH(2), SSB(2), JOB()} {
		for _, q := range qs {
			for _, op := range q.Ops {
				if op.Type != plan.ProbeHash {
					continue
				}
				breaking, streaming := 0, 0
				for _, e := range op.Children() {
					if e.NonPipelineBreaking {
						streaming++
					} else {
						breaking++
					}
				}
				if breaking != 1 || streaming != 1 {
					t.Fatalf("%s: probe op %d has %d breaking / %d streaming inputs",
						q.QueryName, op.ID, breaking, streaming)
				}
			}
		}
	}
}
