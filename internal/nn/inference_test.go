package nn

import (
	"math/rand"
	"testing"
)

// buildForward exercises every tape op that the encoder and predictor
// heads use and reduces to one scalar, so recording and inference modes
// can be compared value-for-value.
func buildForward(t *Tape, p *Params) *Node {
	d := NewDense(p, "d", 4, 3)
	m := NewMLP(p, "m", 3, 5, 3)
	a := p.Vector("a", 6)
	x := t.Const([]float64{0.3, -1.2, 0.7, 2.1})
	h := d.ApplyReLU(t, x)
	h2 := m.Apply(t, h)
	had := t.Mul(h, h2)
	cat := t.Concat(h, t.LeakyReLU(h2, 0.2))
	score := t.AttnScore(a, h, had, 0.2)
	ws := t.WeightedSum(t.Softmax(t.Concat(score, t.Sum(cat), t.Mean(had))), []*Node{h, h2, had})
	mo := t.MeanOf([]*Node{ws, t.Tanh(h2), t.Scale(h, 0.5)})
	lp := t.LogProbAt(mo, 1)
	ent := t.Entropy(mo)
	acc := t.MulAdd(t.Zeros(3), [2]*Node{h, h2})
	return t.Add(t.Add(lp, ent), t.Add(t.Slice(acc, 0), t.Sum(t.Sub(mo, ws))))
}

func TestInferenceForwardMatchesRecording(t *testing.T) {
	run := func(infer bool) float64 {
		p := NewParams(42)
		tp := NewTape()
		tp.SetInference(infer)
		return buildForward(tp, p).Val[0]
	}
	rec, inf := run(false), run(true)
	if rec != inf {
		t.Fatalf("inference forward diverged: recording=%v inference=%v", rec, inf)
	}
}

func TestInferenceSkipsGradStorage(t *testing.T) {
	p := NewParams(1)
	tp := NewTape()
	tp.SetInference(true)
	out := buildForward(tp, p)
	if out.Grad != nil {
		t.Fatal("inference-mode node carries Grad storage")
	}
	if !tp.Inference() {
		t.Fatal("Inference() should report true")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Backward must panic in inference mode")
		}
	}()
	tp.Backward(out)
}

func TestSetInferenceRejectsNonEmptyTape(t *testing.T) {
	tp := NewTape()
	tp.Const([]float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("SetInference on a non-empty tape must panic")
		}
	}()
	tp.SetInference(true)
}

func TestInferenceModeTogglesAcrossResets(t *testing.T) {
	p := NewParams(7)
	tp := NewTape()
	// Recording pass with gradients, then an inference pass, then a
	// recording pass again: values must agree and Backward must work in
	// the recording passes.
	tp.Reset()
	first := buildForward(tp, p)
	v1 := first.Val[0]
	p.ZeroGrads()
	tp.Backward(first)

	tp.Reset()
	tp.SetInference(true)
	v2 := buildForward(tp, p).Val[0]

	tp.Reset()
	tp.SetInference(false)
	third := buildForward(tp, p)
	v3 := third.Val[0]
	tp.Backward(third)

	if v1 != v2 || v2 != v3 {
		t.Fatalf("values diverged across mode toggles: %v %v %v", v1, v2, v3)
	}
}

func TestNodeSliceRecycles(t *testing.T) {
	tp := NewTape()
	s1 := tp.NodeSlice(8)
	if len(s1) != 8 {
		t.Fatalf("NodeSlice length %d", len(s1))
	}
	n := tp.Zeros(1)
	s1[0] = n
	tp.Reset()
	s2 := tp.NodeSlice(8)
	if &s1[0] != &s2[0] {
		t.Fatal("NodeSlice did not recycle its arena after Reset")
	}
	if s2[0] != nil {
		t.Fatal("recycled NodeSlice not zeroed")
	}
	// Oversized requests fall back to plain allocation.
	big := tp.NodeSlice(refSlabSize + 1)
	if len(big) != refSlabSize+1 {
		t.Fatalf("oversized NodeSlice length %d", len(big))
	}
}

func TestParamsVersionBumps(t *testing.T) {
	p := NewParams(3)
	v := p.Vector("w", 4)
	if p.Version() != 0 {
		t.Fatalf("fresh params version %d", p.Version())
	}
	for i := range v.Grad {
		v.Grad[i] = 0.5
	}
	NewAdam(1e-2).Step(p)
	if p.Version() != 1 {
		t.Fatalf("Adam.Step did not bump version: %d", p.Version())
	}
	NewAdam(1e-2).Step(p)
	if p.Version() != 2 {
		t.Fatalf("second Adam.Step did not bump version: %d", p.Version())
	}
	data, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(data); err != nil {
		t.Fatal(err)
	}
	if p.Version() != 3 {
		t.Fatalf("Load did not bump version: %d", p.Version())
	}
}

func TestOwnedVariantsMatchCopying(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(tp *Tape, n int) *Node {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return tp.Const(v)
	}
	tp := NewTape()
	a, b, c := mk(tp, 3), mk(tp, 3), mk(tp, 3)
	cat := tp.Concat(a, b, c)
	catOwned := tp.ConcatOwned([]*Node{a, b, c})
	for i := range cat.Val {
		if cat.Val[i] != catOwned.Val[i] {
			t.Fatal("ConcatOwned diverged from Concat")
		}
	}
	mo := tp.MeanOf([]*Node{a, b, c})
	moOwned := tp.MeanOfOwned([]*Node{a, b, c})
	for i := range mo.Val {
		if mo.Val[i] != moOwned.Val[i] {
			t.Fatal("MeanOfOwned diverged from MeanOf")
		}
	}
}
