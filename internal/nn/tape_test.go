package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericalGrad estimates d loss / d p.Val[i] by central differences,
// where loss is recomputed from scratch by forward().
func numericalGrad(p *Node, i int, forward func() float64) float64 {
	const h = 1e-6
	orig := p.Val[i]
	p.Val[i] = orig + h
	up := forward()
	p.Val[i] = orig - h
	down := forward()
	p.Val[i] = orig
	return (up - down) / (2 * h)
}

// checkGrads verifies every parameter's analytic gradient against the
// numeric one for a scalar-valued graph builder.
func checkGrads(t *testing.T, params *Params, build func(tp *Tape) *Node) {
	t.Helper()
	tape := NewTape()
	forward := func() float64 {
		tape.Reset()
		return build(tape).Val[0]
	}
	tape.Reset()
	loss := build(tape)
	params.ZeroGrads()
	tape.Backward(loss)
	// Snapshot analytic grads before finite differencing reuses the tape.
	type snap struct {
		p    *Node
		grad []float64
	}
	var snaps []snap
	for _, p := range params.All() {
		snaps = append(snaps, snap{p, append([]float64(nil), p.Grad...)})
	}
	for _, s := range snaps {
		for i := range s.grad {
			num := numericalGrad(s.p, i, forward)
			if diff := math.Abs(num - s.grad[i]); diff > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: analytic %.8f vs numeric %.8f", s.p.Name(), i, s.grad[i], num)
			}
		}
	}
}

func TestGradDense(t *testing.T) {
	params := NewParams(1)
	d := NewDense(params, "d", 3, 2)
	x := []float64{0.5, -1.2, 2.0}
	checkGrads(t, params, func(tp *Tape) *Node {
		return tp.Sum(d.ApplyReLU(tp, tp.Const(x)))
	})
}

func TestGradMLP(t *testing.T) {
	params := NewParams(2)
	m := NewMLP(params, "m", 4, 5, 3)
	x := []float64{1, -0.5, 0.25, 2}
	checkGrads(t, params, func(tp *Tape) *Node {
		return tp.Mean(tp.Tanh(m.Apply(tp, tp.Const(x))))
	})
}

func TestGradHadamardAndConcat(t *testing.T) {
	params := NewParams(3)
	w := params.Vector("w", 3)
	v := params.Vector("v", 3)
	x := []float64{0.3, -0.7, 1.1}
	checkGrads(t, params, func(tp *Tape) *Node {
		a := tp.Mul(w, tp.Const(x))
		b := tp.Mul(v, tp.Const(x))
		return tp.Sum(tp.Concat(a, b))
	})
}

func TestGradSoftmaxLogProb(t *testing.T) {
	params := NewParams(4)
	w := params.Vector("w", 4)
	checkGrads(t, params, func(tp *Tape) *Node {
		return tp.LogProbAt(w, 2)
	})
}

func TestGradEntropy(t *testing.T) {
	params := NewParams(5)
	w := params.Vector("w", 4)
	checkGrads(t, params, func(tp *Tape) *Node {
		return tp.Entropy(w)
	})
}

func TestGradAttnScoreFused(t *testing.T) {
	params := NewParams(6)
	a := params.Vector("a", 6)
	xp := params.Vector("xp", 3)
	x := params.Vector("x", 3)
	checkGrads(t, params, func(tp *Tape) *Node {
		// Route parameters through identity ops so tape nodes wrap them.
		xpn := tp.Add(xp, tp.Zeros(3))
		xn := tp.Add(x, tp.Zeros(3))
		return tp.AttnScore(a, xpn, xn, 0.2)
	})
}

func TestGradWeightedSumFused(t *testing.T) {
	params := NewParams(7)
	z := params.Vector("z", 3)
	a := params.Vector("va", 2)
	b := params.Vector("vb", 2)
	c := params.Vector("vc", 2)
	checkGrads(t, params, func(tp *Tape) *Node {
		zn := tp.Softmax(z)
		return tp.Sum(tp.WeightedSum(zn, []*Node{
			tp.Add(a, tp.Zeros(2)), tp.Add(b, tp.Zeros(2)), tp.Add(c, tp.Zeros(2)),
		}))
	})
}

func TestGradMulAddFused(t *testing.T) {
	params := NewParams(8)
	bias := params.Vector("bias", 3)
	w1 := params.Vector("w1", 3)
	x1 := params.Vector("x1", 3)
	w2 := params.Vector("w2", 3)
	x2 := params.Vector("x2", 3)
	checkGrads(t, params, func(tp *Tape) *Node {
		return tp.Sum(tp.ReLU(tp.MulAdd(bias,
			[2]*Node{w1, tp.Add(x1, tp.Zeros(3))},
			[2]*Node{w2, tp.Add(x2, tp.Zeros(3))},
		)))
	})
}

func TestGradFusedMatchesUnfused(t *testing.T) {
	// The fused AttnScore must equal Sum(LeakyReLU(a ⊙ concat(xp, x))).
	params := NewParams(9)
	a := params.Vector("a", 6)
	tape := NewTape()
	xp := tape.Const([]float64{0.4, -0.9, 1.3})
	x := tape.Const([]float64{-0.2, 0.8, -1.5})
	fused := tape.AttnScore(a, xp, x, 0.2)
	unfused := tape.Sum(tape.LeakyReLU(tape.Mul(a, tape.Concat(xp, x)), 0.2))
	if math.Abs(fused.Val[0]-unfused.Val[0]) > 1e-12 {
		t.Fatalf("fused %v != unfused %v", fused.Val[0], unfused.Val[0])
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw [6]float64) bool {
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 50 {
				return true // skip absurd inputs
			}
		}
		tape := NewTape()
		s := tape.Softmax(tape.Const(raw[:]))
		sum := 0.0
		for _, v := range s.Val {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDownConcatRoundTrip(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) == 0 || len(b) == 0 || len(a) > 64 || len(b) > 64 {
			return true
		}
		for _, v := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		tape := NewTape()
		c := tape.Concat(tape.Const(a), tape.Const(b))
		if c.Len() != len(a)+len(b) {
			return false
		}
		for i, v := range a {
			if c.Val[i] != v {
				return false
			}
		}
		for i, v := range b {
			if c.Val[len(a)+i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTapeResetRecyclesMemory(t *testing.T) {
	tape := NewTape()
	for pass := 0; pass < 3; pass++ {
		tape.Reset()
		x := tape.Const([]float64{1, 2, 3})
		y := tape.Scale(x, 2)
		if y.Val[0] != 2 || y.Val[2] != 6 {
			t.Fatalf("pass %d: wrong values after reset: %v", pass, y.Val)
		}
		// Gradients must start zeroed each pass.
		for _, g := range y.Grad {
			if g != 0 {
				t.Fatalf("pass %d: grad not zeroed: %v", pass, y.Grad)
			}
		}
		tape.Backward(tape.Sum(y))
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// Fit y = 2x with a single dense layer.
	params := NewParams(10)
	d := NewDense(params, "fit", 1, 1)
	opt := NewAdam(0.05)
	tape := NewTape()
	rng := rand.New(rand.NewSource(1))
	loss := func(x, y float64) *Node {
		pred := d.Apply(tape, tape.Const([]float64{x}))
		diff := tape.Sub(pred, tape.Const([]float64{y}))
		return tape.Sum(tape.Mul(diff, diff))
	}
	var first, last float64
	for i := 0; i < 300; i++ {
		x := rng.Float64()*4 - 2
		tape.Reset()
		l := loss(x, 2*x)
		if i == 0 {
			first = l.Val[0]
		}
		last = l.Val[0]
		params.ZeroGrads()
		tape.Backward(l)
		opt.Step(params)
	}
	if last > first/10 && last > 1e-3 {
		t.Fatalf("Adam failed to fit: first loss %v, last %v", first, last)
	}
	w, _ := params.Get("fit.W")
	if math.Abs(w.Val[0]-2) > 0.2 {
		t.Fatalf("fitted weight %v, want ~2", w.Val[0])
	}
}

func TestFrozenParamsSkipUpdates(t *testing.T) {
	params := NewParams(11)
	w := params.Vector("w", 2)
	orig := append([]float64(nil), w.Val...)
	w.SetFrozen(true)
	w.Grad[0], w.Grad[1] = 5, -5
	NewAdam(0.1).Step(params)
	for i := range orig {
		if w.Val[i] != orig[i] {
			t.Fatalf("frozen param updated: %v -> %v", orig, w.Val)
		}
	}
}

func TestSerializeLoadRoundTrip(t *testing.T) {
	a := NewParams(12)
	a.Matrix("m", 2, 3)
	a.Vector("v", 4)
	data, err := a.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	b := NewParams(13)
	b.Matrix("m", 2, 3)
	b.Vector("v", 4)
	if err := b.Load(data); err != nil {
		t.Fatal(err)
	}
	am, _ := a.Get("m")
	bm, _ := b.Get("m")
	for i := range am.Val {
		if am.Val[i] != bm.Val[i] {
			t.Fatal("matrix values differ after load")
		}
	}
	// Shape mismatch must error.
	c := NewParams(14)
	c.Matrix("m", 3, 3)
	if err := c.Load(data); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestFreezeMatching(t *testing.T) {
	p := NewParams(15)
	p.Matrix("enc.conv0.wp", 2, 2)
	p.Matrix("enc.in.W", 2, 2)
	p.Matrix("pred.root.l0.W", 2, 2)
	n := p.FreezeMatching(".conv", ".l0")
	if n != 2 {
		t.Fatalf("froze %d params, want 2", n)
	}
	in, _ := p.Get("enc.in.W")
	if in.Frozen() {
		t.Fatal("input projection should stay trainable")
	}
	p.Unfreeze()
	conv, _ := p.Get("enc.conv0.wp")
	if conv.Frozen() {
		t.Fatal("Unfreeze failed")
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParams(16)
	w := p.Vector("w", 2)
	w.Grad[0], w.Grad[1] = 30, 40 // norm 50
	p.ClipGrads(5)
	if math.Abs(p.GradNorm()-5) > 1e-9 {
		t.Fatalf("clipped norm %v, want 5", p.GradNorm())
	}
	if math.Abs(w.Grad[0]/w.Grad[1]-0.75) > 1e-9 {
		t.Fatal("clipping changed gradient direction")
	}
}
