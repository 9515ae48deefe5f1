package frontdoor

import (
	"fmt"
	"hash/fnv"

	"repro/internal/engine"
	"repro/internal/plan"
)

// BackendFunc adapts a function to the Backend interface (test stubs,
// benchmark backends).
type BackendFunc func(q *Query) (*Result, error)

// Run implements Backend.
func (f BackendFunc) Run(q *Query) (*Result, error) { return f(q) }

// EngineBackend executes admitted queries on the live engine: each
// query's *plan.Plan (from Query.Payload) runs as a single-arrival
// live workload under the wrapped scheduler, and the per-operator-type
// duration/memory means flow back as the Result that feeds the
// admission cost model.
//
// Concurrent queries are safe: Live shares only concurrency-safe state
// across runs and serialises every call into the scheduler (the
// engine.Scheduler contract), so sched is stored as given.
type EngineBackend struct {
	live  *engine.Live
	sched engine.Scheduler
}

// NewEngineBackend wraps a live engine and scheduler.
func NewEngineBackend(live *engine.Live, sched engine.Scheduler) *EngineBackend {
	return &EngineBackend{live: live, sched: sched}
}

// Run implements Backend.
func (b *EngineBackend) Run(q *Query) (*Result, error) {
	p, ok := q.Payload.(*plan.Plan)
	if !ok || p == nil {
		return nil, fmt.Errorf("frontdoor: query %q has no plan payload", q.Tenant)
	}
	res, err := b.live.RunOne(b.sched, p)
	if err != nil {
		return nil, err
	}
	out := &Result{
		OpDurations: make(map[int]float64, len(res.OpDurations)),
		OpMemory:    make(map[int]float64, len(res.OpMemory)),
	}
	for t, d := range res.OpDurations {
		out.OpDurations[int(t)] = d
	}
	for t, m := range res.OpMemory {
		out.OpMemory[int(t)] = m
	}
	return out, nil
}

// PlanPool maps incoming requests onto executable plans: the wire
// format carries an operator summary, not a full plan, so the server
// picks a benchmark plan by hashing the summary. The mapping is
// deterministic — identical requests execute identical plans — which
// keeps the admission estimator's online cost windows consistent with
// what actually runs, on a single server and across the cluster's
// nodes alike (every node holding the same plan set maps a routed
// query to the same plan, whichever node it lands on).
//
// The selected plan is handed on as a shared template: the backend
// makes the query's one private copy (Live.RunOne) and must not mutate
// the payload itself.
type PlanPool struct {
	inner Backend
	plans []*plan.Plan
}

// NewPlanPool wraps a backend with the summary-to-plan mapping.
func NewPlanPool(inner Backend, plans []*plan.Plan) (*PlanPool, error) {
	if inner == nil || len(plans) == 0 {
		return nil, fmt.Errorf("frontdoor: NewPlanPool needs a backend and at least one plan")
	}
	return &PlanPool{inner: inner, plans: plans}, nil
}

// Run implements Backend: hash the op summary, put the selected
// template in the query payload, execute on the wrapped backend.
func (pp *PlanPool) Run(q *Query) (*Result, error) {
	h := fnv.New64a()
	for _, op := range q.Ops {
		fmt.Fprintf(h, "%d:%d;", op.Key, op.Units)
	}
	q.Payload = pp.plans[int(h.Sum64()%uint64(len(pp.plans)))]
	return pp.inner.Run(q)
}
