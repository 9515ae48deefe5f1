package engine

import (
	"repro/internal/metrics"
	"repro/internal/plan"
)

// simInstruments caches the engine's instrument handles so the hot
// paths (dispatch, completion) never touch the registry's lock: a
// simulator resolves them once per Sim, the live engine once per Live
// (shared by all its runs — every handle is an atomic instrument). When
// metrics are disabled every field is nil and each operation reduces to
// one nil check — the zero-overhead fast path the benchmarks verify.
type simInstruments struct {
	// dispatched / completed count work orders through their lifecycle;
	// a lossless instrumentation keeps both equal to Result.WorkOrders
	// at the end of a run.
	dispatched *metrics.Counter
	completed  *metrics.Counter
	// admitted / finished count query lifecycle transitions.
	admitted *metrics.Counter
	finished *metrics.Counter
	// decisions counts root-activating scheduler decisions; triggers
	// counts scheduling events delivered to the scheduler (§5.2).
	decisions *metrics.Counter
	triggers  *metrics.Counter
	// queueDepth / freeThreads / poolSize are sampled at every
	// scheduler invocation.
	queueDepth  *metrics.Gauge
	freeThreads *metrics.Gauge
	poolSize    *metrics.Gauge
	// queryLatency distributes (completion − arrival) per query.
	queryLatency *metrics.Histogram
	// opLatency distributes work-order durations by operator type.
	opLatency [plan.NumOpTypes]*metrics.Histogram
}

// newSimInstruments registers the engine's instruments. Registry
// lookups are nil-safe: a nil registry yields all-nil (no-op) handles.
func newSimInstruments(reg *metrics.Registry) *simInstruments {
	si := &simInstruments{}
	si.dispatched = reg.Counter("engine_workorders_dispatched")
	si.completed = reg.Counter("engine_workorders_completed")
	si.admitted = reg.Counter("engine_queries_admitted")
	si.finished = reg.Counter("engine_queries_finished")
	si.decisions = reg.Counter("engine_sched_decisions")
	si.triggers = reg.Counter("engine_sched_triggers")
	si.queueDepth = reg.Gauge("engine_queue_depth")
	si.freeThreads = reg.Gauge("engine_free_threads")
	si.poolSize = reg.Gauge("engine_pool_size")
	si.queryLatency = reg.Histogram("engine_query_latency", nil)
	for t := 0; t < plan.NumOpTypes; t++ {
		si.opLatency[t] = reg.Histogram("engine_wo_latency_"+plan.OpType(t).String(), nil)
	}
	return si
}

// kernelCounters counts work orders per execution kernel, so /metrics
// shows where a live run's data touches went.
type kernelCounters struct {
	sel, build, probe, aggregate, sortk, passthrough, finalize *metrics.Counter
}

// liveInstruments caches the live executor's own handles, resolved in
// NewLive and copied into every run.
type liveInstruments struct {
	// executed counts work orders from inside the worker goroutines; a
	// lossless, race-safe instrumentation ends a run with this equal to
	// LiveResult.WorkOrders.
	executed      *metrics.Counter
	wallLatency   [plan.NumOpTypes]*metrics.Histogram
	kernels       kernelCounters
	morselSplits  *metrics.Counter
	morselHelpers *metrics.Counter
}

// newLiveInstruments registers the live executor's instruments.
func newLiveInstruments(reg *metrics.Registry) liveInstruments {
	li := liveInstruments{
		executed: reg.Counter("live_workorders_executed"),
		kernels: kernelCounters{
			sel:         reg.Counter("live_kernel_wo_select"),
			build:       reg.Counter("live_kernel_wo_build"),
			probe:       reg.Counter("live_kernel_wo_probe"),
			aggregate:   reg.Counter("live_kernel_wo_aggregate"),
			sortk:       reg.Counter("live_kernel_wo_sort"),
			passthrough: reg.Counter("live_kernel_wo_passthrough"),
			finalize:    reg.Counter("live_kernel_wo_finalize"),
		},
		morselSplits:  reg.Counter("live_morsel_splits"),
		morselHelpers: reg.Counter("live_morsel_helpers"),
	}
	for t := 0; t < plan.NumOpTypes; t++ {
		li.wallLatency[t] = reg.Histogram("live_wo_wall_seconds_"+plan.OpType(t).String(), nil)
	}
	return li
}

// trace records one event on the configured tracer at the current
// engine time. It is a method (rather than inlined Record calls) so
// the disabled path costs one nil check and never builds the event.
func (s *Sim) trace(kind metrics.EventKind, query, op, thread int, value float64, label string) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace.Record(metrics.Event{
		Kind:   kind,
		Time:   s.state.Now,
		Query:  query,
		Op:     op,
		Thread: thread,
		Value:  value,
		Label:  label,
	})
}
