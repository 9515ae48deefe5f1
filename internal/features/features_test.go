package features

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/plan"
)

func TestDownsampleEq1PaperExample(t *testing.T) {
	// The paper's example: b = {1,1,0,1,1,0} reduced to size 3 gives
	// d = {1, 0.5, 0.5}? No — the paper computes d[0]=1, d[1] and d[2]
	// as 1 and 0.5: bucket strides of 2 give means {1, 0.5, 0.5}…
	// Working Eq. 1 directly with |d|=3, |b|=6: d_j = mean of b over
	// [j*2, (j+1)*2) = {mean(1,1), mean(0,1), mean(1,0)} = {1, .5, .5}.
	got := Downsample([]float64{1, 1, 0, 1, 1, 0}, 3)
	want := []float64{1, 0.5, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Downsample = %v, want %v", got, want)
		}
	}
}

func TestDownsampleEdgeCases(t *testing.T) {
	if got := Downsample(nil, 4); len(got) != 4 {
		t.Fatal("nil input must still produce the requested width")
	}
	// Fewer inputs than outputs: values spread without panics.
	got := Downsample([]float64{1, 0}, 4)
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestDownsampleSuffixMatchesGeneric(t *testing.T) {
	f := func(total, done uint8, out uint8) bool {
		n := int(total%50) + 1
		d := int(done) % (n + 1)
		w := int(out%8) + 1
		bitmap := make([]float64, n)
		for i := d; i < n; i++ {
			bitmap[i] = 1
		}
		a := Downsample(bitmap, w)
		b := appendDownsampleSuffix(nil, n, d, w)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// testState builds a minimal engine state with one running query.
func testState(t *testing.T) (*engine.State, *engine.QueryState) {
	t.Helper()
	b := plan.NewBuilder("q")
	scan := b.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"orders"}, Columns: []string{"o_orderdate"}, EstBlocks: 10})
	sel := b.Add(&plan.Operator{Type: plan.Select, InputRelations: []string{"orders"}, Columns: []string{"o_orderdate"}, EstBlocks: 10})
	b.ConnectAuto(scan, sel)
	p := b.MustBuild()
	sim := engine.NewSim(engine.SimConfig{Threads: 4, Seed: 1})
	// Run one no-op event to materialize a QueryState via the public
	// API: instead, construct state through a tiny scheduler run.
	var captured *engine.State
	var capturedQ *engine.QueryState
	grab := schedFunc(func(st *engine.State, _ engine.Event) []engine.Decision {
		if len(st.Queries) == 0 {
			return nil
		}
		if captured == nil {
			captured = st
			capturedQ = st.Queries[0]
		}
		// Finish the query promptly.
		var ds []engine.Decision
		for _, q := range st.Queries {
			for _, root := range q.SchedulableRoots() {
				ds = append(ds, engine.Decision{QueryID: q.ID, RootOpID: root.ID, PipelineDepth: 1, Threads: 4})
			}
		}
		return ds
	})
	if _, err := sim.Run(grab, []engine.Arrival{{Plan: p, At: 0}}); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("scheduler never invoked")
	}
	return captured, capturedQ
}

type schedFunc func(*engine.State, engine.Event) []engine.Decision

func (schedFunc) Name() string { return "test" }
func (f schedFunc) OnEvent(st *engine.State, ev engine.Event) []engine.Decision {
	return f(st, ev)
}

func TestOperatorFeatureDimensions(t *testing.T) {
	cfg := DefaultConfig()
	ext := NewExtractor(cfg)
	st, q := testState(t)
	for _, os := range q.OpStates {
		v := ext.Operator(st, q, os)
		if len(v) != cfg.OpDim() {
			t.Fatalf("op feature len %d, want %d", len(v), cfg.OpDim())
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("non-finite feature at %d", i)
			}
		}
	}
	qv := ext.Query(st, q)
	if len(qv) != cfg.QueryDim() {
		t.Fatalf("query feature len %d, want %d", len(qv), cfg.QueryDim())
	}
	for _, e := range q.Plan.Edges {
		ev := ext.Edge(e)
		if len(ev) != cfg.EdgeDim() {
			t.Fatalf("edge feature len %d, want %d", len(ev), cfg.EdgeDim())
		}
	}
}

func TestOperatorTypeOneHot(t *testing.T) {
	cfg := DefaultConfig()
	ext := NewExtractor(cfg)
	st, q := testState(t)
	v := ext.Operator(st, q, q.OpStates[0]) // TableScan
	ones := 0
	for i := 0; i < plan.NumOpTypes; i++ {
		if v[i] == 1 {
			ones++
			if plan.OpType(i) != plan.TableScan {
				t.Fatalf("one-hot set at %v, want TableScan", plan.OpType(i))
			}
		} else if v[i] != 0 {
			t.Fatalf("one-hot slot %d has value %v", i, v[i])
		}
	}
	if ones != 1 {
		t.Fatalf("one-hot has %d ones", ones)
	}
}

func TestEdgeFeatureEncodesNPB(t *testing.T) {
	ext := NewExtractor(DefaultConfig())
	e := &plan.Edge{NonPipelineBreaking: true, SourceIsChild: true}
	v := ext.Edge(e)
	if v[0] != 1 || v[1] != 1 {
		t.Fatalf("edge features %v", v)
	}
	e.NonPipelineBreaking = false
	if ext.Edge(e)[0] != 0 {
		t.Fatal("E-NPB should be 0 for breakers")
	}
}

func TestAppendFormsMatchAllocating(t *testing.T) {
	ext := NewExtractor(DefaultConfig())
	st, q := testState(t)
	scratch := make([]float64, 0, 256)
	for _, os := range q.OpStates {
		want := ext.Operator(st, q, os)
		scratch = ext.AppendOperator(scratch[:0], st, q, os)
		if len(scratch) != len(want) {
			t.Fatalf("AppendOperator len %d, want %d", len(scratch), len(want))
		}
		for i := range want {
			if scratch[i] != want[i] {
				t.Fatalf("AppendOperator[%d] = %v, want %v", i, scratch[i], want[i])
			}
		}
	}
	wantQ := ext.Query(st, q)
	scratch = ext.AppendQuery(scratch[:0], st, q)
	for i := range wantQ {
		if scratch[i] != wantQ[i] {
			t.Fatalf("AppendQuery[%d] = %v, want %v", i, scratch[i], wantQ[i])
		}
	}
	for _, ed := range q.Plan.Edges {
		wantE := ext.Edge(ed)
		scratch = ext.AppendEdge(scratch[:0], ed)
		for i := range wantE {
			if scratch[i] != wantE[i] {
				t.Fatalf("AppendEdge[%d] = %v, want %v", i, scratch[i], wantE[i])
			}
		}
	}
}

func TestDynamicFeaturesUseEstimator(t *testing.T) {
	cfg := DefaultConfig()
	ext := NewExtractor(cfg)
	st, q := testState(t)
	os := q.OpStates[0]
	// Force a known estimator state: 3 completed orders of 2.0s each.
	st.Estimator = costmodel.NewEstimator(4, 1, 1)
	key := q.ID*1024 + os.Op.ID
	st.Estimator.ObserveCompletion(key, 2, 5)
	st.Estimator.ObserveCompletion(key, 2, 5)
	v := ext.Operator(st, q, os)
	// The last three entries are log1p(O-WO), log1p(O-DUR), log1p(O-MEM).
	n := len(v)
	rem := float64(os.Remaining())
	if math.Abs(v[n-3]-math.Log1p(rem)) > 1e-9 {
		t.Fatalf("O-WO = %v, want log1p(%v)", v[n-3], rem)
	}
	if math.Abs(v[n-2]-math.Log1p(2*rem)) > 1e-9 {
		t.Fatalf("O-DUR = %v, want log1p(%v)", v[n-2], 2*rem)
	}
	if math.Abs(v[n-1]-math.Log1p(5*rem)) > 1e-9 {
		t.Fatalf("O-MEM = %v, want log1p(%v)", v[n-1], 5*rem)
	}
}

// Downsample implements Eq. 1 on a materialized bitmap: it reduces b to
// out values, each the mean of its stride of the original array. It is
// the oracle for the in-place forms in features.go.
func Downsample(b []float64, out int) []float64 {
	d := make([]float64, out)
	if len(b) == 0 || out <= 0 {
		return d
	}
	stride := float64(len(b)) / float64(out)
	for j := 0; j < out; j++ {
		lo := int(float64(j) * stride)
		hi := int(float64(j+1) * stride)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		s := 0.0
		for k := lo; k < hi; k++ {
			s += b[k]
		}
		d[j] = s / float64(hi-lo)
	}
	return d
}
