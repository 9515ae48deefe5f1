// Package features extracts the physical-plan feature vectors of §4.1:
// per-operator features (OPF), per-edge features (EDF), and per-query
// features (QF). Static features are computed once per query; dynamic
// features (O-WO, O-DUR, O-MEM, Q-ATH, Q-FTH, Q-LOC) are recomputed at
// every scheduling event from the engine's execution statistics.
package features

import (
	"hash/fnv"
	"math"

	"repro/internal/engine"
	"repro/internal/plan"
)

// Config fixes the feature-vector dimensions. Vocabulary-valued features
// (input relations, columns) are feature-hashed into fixed-width one-hot
// buckets so one trained model serves any schema; block bitmaps and the
// thread-locality vector are downsized with the paper's moving average
// (Eq. 1).
type Config struct {
	// RelBuckets is the hashed width of the O-IN relation one-hot.
	RelBuckets int
	// ColBuckets is the hashed width of the O-COLS column one-hot.
	ColBuckets int
	// BlockFeat is the downsized width of the O-BLCKS bitmap.
	BlockFeat int
	// LocFeat is the downsized width of the Q-LOC thread-locality vector.
	LocFeat int
}

// DefaultConfig returns the dimensions used throughout the experiments.
func DefaultConfig() Config {
	return Config{RelBuckets: 12, ColBuckets: 12, BlockFeat: 8, LocFeat: 8}
}

// connectivityDims is the width of the O-CON summary (in-degree,
// out-degree, depth, is-leaf, is-sink). The full adjacency structure is
// consumed by the tree convolution itself, which walks the DAG; the
// summary gives each node's local shape as a dense feature.
const connectivityDims = 5

// scalarDims counts O-WO, O-DUR, O-MEM.
const scalarDims = 3

// OpDim returns the per-operator feature width under the config.
func (c Config) OpDim() int {
	return plan.NumOpTypes + connectivityDims + c.RelBuckets + c.ColBuckets + c.BlockFeat + scalarDims
}

// EdgeDim returns the per-edge feature width (E-NPB, E-DIR).
func (c Config) EdgeDim() int { return 2 }

// QueryDim returns the per-query feature width (Q-ATH, Q-FTH, Q-LOC).
func (c Config) QueryDim() int { return 2 + c.LocFeat }

// Extractor computes feature vectors from engine state.
type Extractor struct {
	cfg Config
}

// NewExtractor returns an extractor with the given dimensions.
func NewExtractor(cfg Config) *Extractor {
	return &Extractor{cfg: cfg}
}

// Config returns the extractor's dimension config.
func (e *Extractor) Config() Config { return e.cfg }

// appendDownsampleSuffix appends Eq. 1's downsampling (each of out
// values is the mean of its stride of the original array) of a
// length-total bitmap whose first done entries are 0 and the rest 1,
// exploiting the suffix shape to avoid materializing the bitmap.
func appendDownsampleSuffix(dst []float64, total, done, out int) []float64 {
	if out <= 0 {
		return dst
	}
	if total <= 0 {
		return appendZeros(dst, out)
	}
	stride := float64(total) / float64(out)
	for j := 0; j < out; j++ {
		lo := int(float64(j) * stride)
		hi := int(float64(j+1) * stride)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > total {
			hi = total
		}
		remLo := lo
		if done > remLo {
			remLo = done
		}
		v := 0.0
		if remLo < hi {
			v = float64(hi-remLo) / float64(hi-lo)
		}
		dst = append(dst, v)
	}
	return dst
}

// appendZeros appends n zero values to dst.
func appendZeros(dst []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	return dst
}

func hashBucket(s string, buckets int) int {
	h := fnv.New32a()
	h.Write([]byte(s))
	return int(h.Sum32() % uint32(buckets))
}

// Operator computes the OPF vector for one operator of one running
// query. It combines the static features (O-TY, O-CON, O-IN, O-COLS,
// O-BLCKS) with the dynamic ones (O-WO, O-DUR, O-MEM) from the engine's
// cost estimator.
func (e *Extractor) Operator(st *engine.State, q *engine.QueryState, os *engine.OpState) []float64 {
	return e.AppendOperator(make([]float64, 0, e.cfg.OpDim()), st, q, os)
}

// AppendOperator appends the OPF vector to dst and returns the extended
// slice. This is the allocation-free form used on the per-event hot
// path: no intermediate one-hot or bitmap slices are materialized.
func (e *Extractor) AppendOperator(dst []float64, st *engine.State, q *engine.QueryState, os *engine.OpState) []float64 {
	c := e.cfg
	op := os.Op

	// O-TY: operator type one-hot, written in place.
	base := len(dst)
	dst = appendZeros(dst, plan.NumOpTypes)
	dst[base+int(op.Type)] = 1

	// O-CON: connectivity summary.
	depth := 0.0
	for o := op; len(o.Children()) > 0; {
		o = o.Children()[0].Child
		depth++
	}
	dst = append(dst,
		float64(len(op.Children())),
		float64(len(op.Parents())),
		depth/8.0,
		b2f(len(op.Children()) == 0),
		b2f(len(op.Parents()) == 0),
	)

	// O-IN: hashed one-hot of input relations.
	base = len(dst)
	dst = appendZeros(dst, c.RelBuckets)
	for _, r := range op.InputRelations {
		dst[base+hashBucket(r, c.RelBuckets)] = 1
	}

	// O-COLS: hashed one-hot of touched columns.
	base = len(dst)
	dst = appendZeros(dst, c.ColBuckets)
	for _, col := range op.Columns {
		dst[base+hashBucket(col, c.ColBuckets)] = 1
	}

	// O-BLCKS: bitmap of blocks still to process, downsized by Eq. 1.
	// Work orders complete in block order, so the remaining bitmap is a
	// contiguous suffix and each bucket's mean is the fraction of the
	// bucket past the completion point — computed without materializing
	// the (possibly thousands-long) bitmap.
	dst = appendDownsampleSuffix(dst, os.TotalWOs, os.Completed, c.BlockFeat)

	// O-WO, O-DUR, O-MEM (log-compressed dynamic scalars).
	rem := os.Remaining()
	key := q.ID*1024 + op.ID
	return append(dst,
		math.Log1p(float64(rem)),
		math.Log1p(st.Estimator.EstimateDuration(key, rem)),
		math.Log1p(st.Estimator.EstimateMemory(key, rem)),
	)
}

// Edge computes the EDF vector for one plan edge.
func (e *Extractor) Edge(ed *plan.Edge) []float64 {
	return e.AppendEdge(make([]float64, 0, e.cfg.EdgeDim()), ed)
}

// AppendEdge appends the EDF vector to dst and returns the extended
// slice.
func (e *Extractor) AppendEdge(dst []float64, ed *plan.Edge) []float64 {
	return append(dst, b2f(ed.NonPipelineBreaking), b2f(ed.SourceIsChild))
}

// Query computes the QF vector for one running query: assigned threads,
// free threads, and the downsized thread-locality vector.
func (e *Extractor) Query(st *engine.State, q *engine.QueryState) []float64 {
	return e.AppendQuery(make([]float64, 0, e.cfg.QueryDim()), st, q)
}

// AppendQuery appends the QF vector to dst and returns the extended
// slice. The Q-LOC locality bitmap is downsized bucket by bucket
// without materializing the per-thread vector.
func (e *Extractor) AppendQuery(dst []float64, st *engine.State, q *engine.QueryState) []float64 {
	c := e.cfg
	dst = append(dst,
		math.Log1p(float64(q.AssignedThreads)),
		math.Log1p(float64(st.FreeThreads())),
	)
	// Eq. 1 downsampling of st.LocalityVector(q) to c.LocFeat values,
	// computed in place.
	total := len(st.Threads)
	if total == 0 || c.LocFeat <= 0 {
		return appendZeros(dst, c.LocFeat)
	}
	stride := float64(total) / float64(c.LocFeat)
	for j := 0; j < c.LocFeat; j++ {
		lo := int(float64(j) * stride)
		hi := int(float64(j+1) * stride)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > total {
			hi = total
		}
		s := 0.0
		for k := lo; k < hi; k++ {
			if st.Threads[k].LastQuery == q.ID {
				s++
			}
		}
		dst = append(dst, s/float64(hi-lo))
	}
	return dst
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
