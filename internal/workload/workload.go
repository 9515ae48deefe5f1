package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/plan"
)

// Benchmark names the supported benchmarks.
type Benchmark string

// The supported benchmarks.
const (
	BenchTPCH Benchmark = "tpch"
	BenchSSB  Benchmark = "ssb"
	BenchJOB  Benchmark = "job"
)

// Plans returns one benchmark's query plans at a single scale factor
// (ignored for JOB, which has none) — the plan set a serving binary
// backs its synthetic catalog with.
func Plans(b Benchmark, sf float64) ([]*plan.Plan, error) {
	switch b {
	case BenchTPCH:
		return TPCH(sf), nil
	case BenchSSB:
		return SSB(sf), nil
	case BenchJOB:
		return JOB(), nil
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", b)
}

// Pool is a set of query plans a workload samples from, already split
// into train and test halves as §7.1 describes: per scale factor, 50% of
// the benchmark's queries are selected (without replacement) for
// training; the rest are reserved for testing and never seen in
// training.
type Pool struct {
	Benchmark Benchmark
	Train     []*plan.Plan
	Test      []*plan.Plan
}

// TPCHScaleFactors are the paper's TPC-H scale factors.
var TPCHScaleFactors = []float64{2, 5, 10, 50, 100}

// SSBScaleFactors are the paper's SSB scale factors.
var SSBScaleFactors = []float64{2, 5, 10, 50}

// NewPool builds the train/test pool for a benchmark with the paper's
// scale factors and split procedure, deterministically from the seed.
func NewPool(b Benchmark, seed int64) (*Pool, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &Pool{Benchmark: b}
	switch b {
	case BenchTPCH:
		for _, sf := range TPCHScaleFactors {
			splitInto(p, TPCH(sf), rng)
		}
	case BenchSSB:
		for _, sf := range SSBScaleFactors {
			splitInto(p, SSB(sf), rng)
		}
	case BenchJOB:
		// JOB has no scale factor; split the 113 queries directly.
		splitInto(p, JOB(), rng)
	default:
		return nil, fmt.Errorf("workload: unknown benchmark %q", b)
	}
	return p, nil
}

// splitInto randomly assigns half of qs (rounded down) to training and
// the rest to testing.
func splitInto(p *Pool, qs []*plan.Plan, rng *rand.Rand) {
	idx := rng.Perm(len(qs))
	half := len(qs) / 2
	for i, j := range idx {
		if i < half {
			p.Train = append(p.Train, qs[j])
		} else {
			p.Test = append(p.Test, qs[j])
		}
	}
}

// Streaming draws n queries (with replacement) from the given plan set
// and spaces their arrivals with exponential gaps of expected value
// 1/rate — the continuous-arrival process of §7.1.
func Streaming(plans []*plan.Plan, n int, rate float64, rng *rand.Rand) []engine.Arrival {
	if rate <= 0 {
		rate = 1
	}
	arrivals := make([]engine.Arrival, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / rate
		arrivals = append(arrivals, engine.Arrival{Plan: plans[rng.Intn(len(plans))].Clone(), At: t})
	}
	return arrivals
}

// Batch draws n queries (with replacement) all arriving at time zero —
// the batch-processing scenario where the system is under maximal
// pressure.
func Batch(plans []*plan.Plan, n int, rng *rand.Rand) []engine.Arrival {
	arrivals := make([]engine.Arrival, 0, n)
	for i := 0; i < n; i++ {
		arrivals = append(arrivals, engine.Arrival{Plan: plans[rng.Intn(len(plans))].Clone(), At: 0})
	}
	return arrivals
}
