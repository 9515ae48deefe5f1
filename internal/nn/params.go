package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Params is a registry of named trainable parameters. Parameter nodes
// persist across tape passes; their gradients accumulate during Backward
// and are consumed by an Optimizer.
type Params struct {
	byName map[string]*Node
	order  []string
	rng    *rand.Rand
	// version counts value mutations (optimizer steps, checkpoint
	// loads). Derived caches of forward-pass values — the encoder's
	// per-query encoding cache — key on it to invalidate when the
	// parameters they were computed from change.
	version uint64
}

// Version returns the current parameter-value version. It starts at 0
// and increases on every BumpVersion call.
func (p *Params) Version() uint64 { return p.version }

// BumpVersion marks the parameter values as changed. Optimizers and Load
// call it; call it manually after mutating Val slices directly so that
// value caches keyed on Version are invalidated.
func (p *Params) BumpVersion() { p.version++ }

// NewParams returns an empty registry seeded deterministically.
func NewParams(seed int64) *Params {
	return &Params{byName: make(map[string]*Node), rng: rand.New(rand.NewSource(seed))}
}

// Matrix registers (or returns the existing) rows×cols parameter matrix
// with Glorot-uniform initialization.
func (p *Params) Matrix(name string, rows, cols int) *Node {
	if n, ok := p.byName[name]; ok {
		if n.Rows != rows || n.Cols != cols {
			panic(fmt.Sprintf("nn: param %q re-declared %dx%d, was %dx%d", name, rows, cols, n.Rows, n.Cols))
		}
		return n
	}
	n := &Node{
		Val:   make([]float64, rows*cols),
		Grad:  make([]float64, rows*cols),
		Rows:  rows,
		Cols:  cols,
		param: true,
		name:  name,
	}
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range n.Val {
		n.Val[i] = (2*p.rng.Float64() - 1) * limit
	}
	p.byName[name] = n
	p.order = append(p.order, name)
	return n
}

// Vector registers (or returns) a length-n parameter vector initialized
// near zero.
func (p *Params) Vector(name string, n int) *Node {
	if node, ok := p.byName[name]; ok {
		if node.Len() != n {
			panic(fmt.Sprintf("nn: param %q re-declared len %d, was %d", name, n, node.Len()))
		}
		return node
	}
	node := &Node{
		Val:   make([]float64, n),
		Grad:  make([]float64, n),
		Rows:  n,
		Cols:  1,
		param: true,
		name:  name,
	}
	limit := math.Sqrt(3.0 / float64(n))
	for i := range node.Val {
		node.Val[i] = (2*p.rng.Float64() - 1) * limit * 0.1
	}
	p.byName[name] = node
	p.order = append(p.order, name)
	return node
}

// Get returns a parameter by name.
func (p *Params) Get(name string) (*Node, bool) {
	n, ok := p.byName[name]
	return n, ok
}

// All returns parameters in registration order.
func (p *Params) All() []*Node {
	out := make([]*Node, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, p.byName[name])
	}
	return out
}

// ZeroGrads clears accumulated gradients.
func (p *Params) ZeroGrads() {
	for _, name := range p.order {
		n := p.byName[name]
		for i := range n.Grad {
			n.Grad[i] = 0
		}
	}
}

// GradNorm returns the L2 norm of all gradients, for clipping. It sums
// in registration order, so the result (and the clip scale) is the same
// bit for bit on every run.
func (p *Params) GradNorm() float64 {
	s := 0.0
	for _, name := range p.order {
		for _, g := range p.byName[name].Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGrads rescales gradients so their global L2 norm is at most max.
func (p *Params) ClipGrads(max float64) {
	norm := p.GradNorm()
	if norm <= max || norm == 0 {
		return
	}
	scale := max / norm
	for _, name := range p.order {
		n := p.byName[name]
		for i := range n.Grad {
			n.Grad[i] *= scale
		}
	}
}

// FreezeMatching marks every parameter whose name contains any of the
// substrings as frozen — the transfer-learning mechanism of §6 (freeze
// inner layers, retrain input/output-adjacent ones). It returns how many
// parameters were frozen.
func (p *Params) FreezeMatching(substrings ...string) int {
	n := 0
	for _, node := range p.byName {
		for _, s := range substrings {
			if strings.Contains(node.name, s) {
				node.SetFrozen(true)
				n++
				break
			}
		}
	}
	return n
}

// Unfreeze clears all freeze marks.
func (p *Params) Unfreeze() {
	for _, node := range p.byName {
		node.SetFrozen(false)
	}
}

// savedParam is the gob wire form of one parameter.
type savedParam struct {
	Name string
	Rows int
	Cols int
	Val  []float64
}

// Serialize encodes all parameter values (not gradients or freeze marks)
// for checkpointing and transfer learning.
func (p *Params) Serialize() ([]byte, error) {
	saved := make([]savedParam, 0, len(p.order))
	names := append([]string(nil), p.order...)
	sort.Strings(names)
	for _, name := range names {
		n := p.byName[name]
		saved = append(saved, savedParam{Name: name, Rows: n.Rows, Cols: n.Cols, Val: append([]float64(nil), n.Val...)})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(saved); err != nil {
		return nil, fmt.Errorf("nn: serialize: %w", err)
	}
	return buf.Bytes(), nil
}

// Load restores parameter values previously produced by Serialize.
// Parameters present in the snapshot but not yet registered are created;
// shape mismatches are errors.
//
// Load is hardened against untrusted bytes (a truncated or corrupted
// checkpoint file): it never panics, and on any error the receiver is
// left exactly as it was — the full snapshot is decoded and validated
// before the first parameter value is touched.
func (p *Params) Load(data []byte) (err error) {
	// gob is not guaranteed panic-free on adversarial input; a corrupt
	// checkpoint must surface as an error, never kill the process.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("nn: load: corrupt snapshot: %v", r)
		}
	}()
	var saved []savedParam
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&saved); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	// Validate everything before mutating anything.
	for _, s := range saved {
		if s.Rows <= 0 || s.Cols <= 0 || len(s.Val) != s.Rows*s.Cols {
			return fmt.Errorf("nn: load: param %q claims shape %dx%d with %d values", s.Name, s.Rows, s.Cols, len(s.Val))
		}
		if n, ok := p.byName[s.Name]; ok && (n.Rows != s.Rows || n.Cols != s.Cols) {
			return fmt.Errorf("nn: load: param %q shape %dx%d, snapshot %dx%d", s.Name, n.Rows, n.Cols, s.Rows, s.Cols)
		}
	}
	for _, s := range saved {
		n, ok := p.byName[s.Name]
		if !ok {
			n = p.Matrix(s.Name, s.Rows, s.Cols)
		}
		copy(n.Val, s.Val)
	}
	p.BumpVersion()
	return nil
}
