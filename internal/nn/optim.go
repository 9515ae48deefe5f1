package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) — the workhorse for the
// REINFORCE policy updates.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	t       int
	m       map[string][]float64
	v       map[string][]float64
}

// NewAdam returns Adam with the usual defaults for unset fields.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make(map[string][]float64), v: make(map[string][]float64),
	}
}

// Step applies one Adam update to all unfrozen parameters.
func (o *Adam) Step(p *Params) {
	p.BumpVersion()
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, n := range p.All() {
		if n.Frozen() {
			continue
		}
		m, ok := o.m[n.Name()]
		if !ok {
			m = make([]float64, n.Len())
			o.m[n.Name()] = m
		}
		v, ok := o.v[n.Name()]
		if !ok {
			v = make([]float64, n.Len())
			o.v[n.Name()] = v
		}
		for i := range n.Val {
			g := n.Grad[i]
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			n.Val[i] -= o.LR * mh / (math.Sqrt(vh) + o.Epsilon)
		}
	}
}
