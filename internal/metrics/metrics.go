// Package metrics is the engine's observability substrate: a lock-cheap
// registry of counters, gauges, and fixed-bucket latency histograms,
// plus a ring-buffer trace of typed scheduling events (see trace.go).
//
// The package is stdlib-only and designed around two constraints the
// scheduler imposes:
//
//  1. Nil safety. Every method works on a nil receiver as a no-op, so
//     instrumented code paths read `c.Inc()` unconditionally and the
//     disabled configuration (no *Registry supplied) costs one nil
//     check — no branching at call sites, no interface dispatch.
//  2. Race safety. Counters and gauges are single atomics; histogram
//     buckets are per-bucket atomics. Worker goroutines in the live
//     engine increment them concurrently with the event loop, which is
//     what `go test -race ./internal/engine/` exercises.
//
// Instruments are identified by name. Registration (Counter / Gauge /
// Histogram lookup) takes a mutex and is expected to happen once per
// run, with the returned pointer cached by the instrumented subsystem;
// the hot-path operations (Inc, Add, Set, Observe) never lock.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float instrument (queue depth, pool size).
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= Bounds[i] (and > Bounds[i-1]); one implicit
// overflow bucket collects everything above the last bound.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary-search the first bound >= v; linear would do for the
	// typical ~10 buckets but this keeps wide histograms cheap too.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot captures the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.Sum(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// LatencyBuckets returns the default exponential bucket bounds used for
// work-order and query latencies, spanning sub-millisecond live work
// orders up to long simulated queries.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 16)
	for v := 1e-4; v <= 2e3; v *= 4 {
		out = append(out, v)
	}
	return out
}

// DefaultLabelCap is the per-family labeled-series cap a new registry
// starts with (see SetLabelCap).
const DefaultLabelCap = 512

// DroppedSeriesCounter is the counter incremented once per lookup that
// was refused by the label-cardinality cap.
const DroppedSeriesCounter = "metrics_labels_dropped"

// Registry holds named instruments. The zero value is not usable; use
// NewRegistry. A nil *Registry is a valid "metrics disabled" handle:
// its lookup methods return nil instruments whose operations no-op.
//
// Labeled instruments (names composed with LabeledName) are capped per
// metric family: once a base name has accumulated the cap's worth of
// distinct label sets, further new label sets return nil instruments
// (valid no-ops) and increment DroppedSeriesCounter — unbounded label
// values (tenant IDs, feature names) degrade to a counted drop instead
// of growing the registry without limit.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	labelCap   int
	families   map[string]int // base name -> distinct labeled series created
}

// NewRegistry returns an empty registry with the default label cap.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		labelCap:   DefaultLabelCap,
		families:   make(map[string]int),
	}
}

// SetLabelCap changes the per-family labeled-series cap. n <= 0 removes
// the cap. Already-created series are never evicted; the cap only
// refuses new label sets. No-op on a nil registry.
func (r *Registry) SetLabelCap(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.labelCap = n
	r.mu.Unlock()
}

// admitSeriesLocked charges a new instrument name against its family's
// label cap, reporting whether creation may proceed. Unlabeled names
// always pass. Caller holds r.mu.
func (r *Registry) admitSeriesLocked(name string) bool {
	base, labels := SplitLabeledName(name)
	if labels == "" {
		return true
	}
	if r.labelCap > 0 && r.families[base] >= r.labelCap {
		c, ok := r.counters[DroppedSeriesCounter]
		if !ok {
			c = &Counter{}
			r.counters[DroppedSeriesCounter] = c
		}
		c.Inc()
		return false
	}
	r.families[base]++
	return true
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a valid no-op counter) on a nil registry, or when the
// name's label set was refused by the cardinality cap.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		if !r.admitSeriesLocked(name) {
			return nil
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil (a valid no-op gauge) on a nil registry, or when the
// name's label set was refused by the cardinality cap.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		if !r.admitSeriesLocked(name) {
			return nil
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (bounds are sorted and deduplicated;
// nil bounds select LatencyBuckets). Later lookups ignore bounds.
// Returns nil (a valid no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if !r.admitSeriesLocked(name) {
			return nil
		}
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		uniq := bs[:0]
		for i, b := range bs {
			if i == 0 || b != bs[i-1] {
				uniq = append(uniq, b)
			}
		}
		h = &Histogram{bounds: uniq, counts: make([]atomic.Int64, len(uniq)+1)}
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is the exported state of one histogram. Counts has
// one more entry than Bounds; the extra final entry is the overflow
// bucket (observations above the last bound).
type HistogramSnapshot struct {
	Count  int64
	Sum    float64
	Bounds []float64
	Counts []int64
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// the input obs.WritePrometheus renders.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures the registry's current state. Returns an empty
// snapshot on a nil registry. Individual instrument reads are atomic;
// the snapshot as a whole is not (concurrent writers may land between
// reads), which is fine for exposition.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}
