// Package serving is the live half of the policy lifecycle: it puts a
// hot-swappable indirection in front of any engine.Scheduler, builds
// servable agents from store checkpoints (LSchedLoader), and reports the
// serving slot's state for the obs server's /policy endpoint. Which
// version serves is decided outside the process: lsched-policyctl
// promotes a version in the store, and the coordinator pushes it to its
// nodes, each of which loads it and swaps it in. ShadowEvaluator
// replays a candidate policy beside the active one on the same event
// stream, for a future promotion gate; no binary runs it yet.
//
// The split with internal/policystore mirrors a production deployment:
// policystore owns durable versioned artifacts, serving owns the
// in-process mechanics of running one of them under live traffic and
// changing which one without pausing dispatch.
package serving

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// slot pairs a scheduler with the policy-store version it was loaded
// from; HotAgent swaps whole slots so both change atomically.
type slot struct {
	sched   engine.Scheduler
	version int
}

// HotAgent wraps an engine.Scheduler behind an atomic pointer so the
// policy can be replaced mid-run, between OnEvent calls, without
// pausing the engine. Swapping costs one pointer store on the writer
// and one pointer load per OnEvent on the serving path — no locks, no
// allocation (see BenchmarkHotSwap).
//
// Decisions taken before the swap point are exactly the wrapped
// scheduler's; after Install returns, the next OnEvent runs the new
// policy. A policy loaded via nn.Params.Load bumps its params version
// counter, so a fresh agent's encoder cache never serves encodings
// computed under other parameter values.
//
// HotAgent also forwards engine.QueryObserver callbacks to the current
// scheduler when it implements the interface, so an agent's
// flight-recorder entries join their query outcomes.
type HotAgent struct {
	cur   atomic.Pointer[slot]
	swaps atomic.Uint64

	// mSwaps, when instrumented, mirrors the swap count into the
	// metrics registry (exposed as policy_swaps_total).
	mSwaps *metrics.Counter
}

// NewHotAgent wraps an initial scheduler. version labels where it came
// from (0 = not from the store). The initial install does not count as
// a swap.
func NewHotAgent(initial engine.Scheduler, version int) *HotAgent {
	h := &HotAgent{}
	stampPolicyVersion(initial, version)
	h.cur.Store(&slot{sched: initial, version: version})
	return h
}

// stampPolicyVersion pushes the policy-store version into schedulers
// that record decision provenance (lsched.Agent),
// so every flight-recorder entry names the checkpoint that produced it.
func stampPolicyVersion(sched engine.Scheduler, version int) {
	if s, ok := sched.(interface{ SetPolicyVersion(int) }); ok {
		s.SetPolicyVersion(version)
	}
}

// Instrument attaches the swap counter to a registry (nil is a no-op).
func (h *HotAgent) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	h.mSwaps = reg.Counter("policy_swaps_total")
}

// Install atomically replaces the serving policy. It may be called from
// any goroutine while the engine is mid-run; OnEvent calls in flight
// finish on the policy they started with, the next event runs the new
// one.
func (h *HotAgent) Install(sched engine.Scheduler, version int) {
	stampPolicyVersion(sched, version)
	h.cur.Store(&slot{sched: sched, version: version})
	h.swaps.Add(1)
	h.mSwaps.Inc()
}

// ActiveVersion returns the store version of the serving policy.
func (h *HotAgent) ActiveVersion() int { return h.cur.Load().version }

// Swaps returns how many Install calls have happened.
func (h *HotAgent) Swaps() uint64 { return h.swaps.Load() }

// Name implements engine.Scheduler, delegating to the serving policy.
func (h *HotAgent) Name() string { return h.cur.Load().sched.Name() }

// OnEvent implements engine.Scheduler: one atomic load, then the
// serving policy decides.
func (h *HotAgent) OnEvent(st *engine.State, ev engine.Event) []engine.Decision {
	return h.cur.Load().sched.OnEvent(st, ev)
}

// QueryCompleted implements engine.QueryObserver by forwarding to the
// serving policy when it observes query lifecycles (lsched.Agent joins
// its provenance records this way).
func (h *HotAgent) QueryCompleted(queryID int, arrival, completion float64) {
	if o, ok := h.cur.Load().sched.(engine.QueryObserver); ok {
		o.QueryCompleted(queryID, arrival, completion)
	}
}
