package frontdoor

import (
	"strconv"

	"repro/internal/metrics"
)

// Metric name helpers: the front door's per-tenant and per-class series
// are composed with metrics.LabeledName so the Prometheus exposition
// groups them into families. Exported so dashboards and the golden test
// spell names one way.

// MetricSubmitted is the per-tenant submitted-query counter name.
func MetricSubmitted(tenant string) string {
	return metrics.LabeledName("frontdoor_submitted", "tenant", tenant)
}

// MetricAdmitted is the per-tenant admitted-query counter name.
func MetricAdmitted(tenant string) string {
	return metrics.LabeledName("frontdoor_admitted", "tenant", tenant)
}

// MetricShed is the per-tenant shed-query counter name.
func MetricShed(tenant string) string {
	return metrics.LabeledName("frontdoor_shed", "tenant", tenant)
}

// MetricRejected is the per-tenant rejected-query counter name.
func MetricRejected(tenant string) string {
	return metrics.LabeledName("frontdoor_rejected", "tenant", tenant)
}

// MetricQueueDepth is the per-tenant per-class queue-depth gauge name.
func MetricQueueDepth(tenant string, class Class) string {
	return metrics.LabeledName("frontdoor_queue_depth", "tenant", tenant, "class", class.String())
}

// MetricTenantShare is the per-tenant in-flight-share gauge name (the
// fairness gauge: the tenant's fraction of executing queries).
func MetricTenantShare(tenant string) string {
	return metrics.LabeledName("frontdoor_tenant_share", "tenant", tenant)
}

// MetricLatency is the per-class end-to-end latency histogram name
// (admitted queries, submit to completion).
func MetricLatency(class Class) string {
	return metrics.LabeledName("frontdoor_latency", "class", class.String())
}

// MetricWait is the per-class queue-wait histogram name.
func MetricWait(class Class) string {
	return metrics.LabeledName("frontdoor_wait", "class", class.String())
}

// MetricShardQueued is the per-shard queued-query gauge name.
func MetricShardQueued(shard int) string {
	return metrics.LabeledName("frontdoor_shard_queued", "shard", strconv.Itoa(shard))
}

// MetricShardInFlight is the per-shard executing-query gauge name.
func MetricShardInFlight(shard int) string {
	return metrics.LabeledName("frontdoor_shard_inflight", "shard", strconv.Itoa(shard))
}

// MetricSteals is the cross-shard work-steal counter name: admissions
// performed by a shard other than the query's owner.
const MetricSteals = "frontdoor_steals"

// instruments are the front door's cached metric handles; all nil (and
// so no-op) when metrics are disabled.
type instruments struct {
	reg            *metrics.Registry
	queued         *metrics.Gauge
	inflight       *metrics.Gauge
	deadlineMet    *metrics.Counter
	deadlineMissed *metrics.Counter
	steals         *metrics.Counter
	latency        [numClasses]*metrics.Histogram
	wait           [numClasses]*metrics.Histogram
}

// shardInstruments are one shard's metric handles.
type shardInstruments struct {
	queued   *metrics.Gauge
	inflight *metrics.Gauge
}

type tenantInstruments struct {
	submitted, admitted, shed, rejected *metrics.Counter
	depth                               [numClasses]*metrics.Gauge
	share                               *metrics.Gauge
}

func newInstruments(reg *metrics.Registry) *instruments {
	ins := &instruments{
		reg:            reg,
		queued:         reg.Gauge("frontdoor_queued"),
		inflight:       reg.Gauge("frontdoor_inflight"),
		deadlineMet:    reg.Counter("frontdoor_deadline_met"),
		deadlineMissed: reg.Counter("frontdoor_deadline_missed"),
		steals:         reg.Counter(MetricSteals),
	}
	for c := Class(0); c < numClasses; c++ {
		ins.latency[c] = reg.Histogram(MetricLatency(c), nil)
		ins.wait[c] = reg.Histogram(MetricWait(c), nil)
	}
	return ins
}

// forShard builds one shard's instrument set.
func (ins *instruments) forShard(shard int) shardInstruments {
	return shardInstruments{
		queued:   ins.reg.Gauge(MetricShardQueued(shard)),
		inflight: ins.reg.Gauge(MetricShardInFlight(shard)),
	}
}

// forTenant builds (or re-looks-up) one tenant's instrument set.
func (ins *instruments) forTenant(tenant string) tenantInstruments {
	ti := tenantInstruments{
		submitted: ins.reg.Counter(MetricSubmitted(tenant)),
		admitted:  ins.reg.Counter(MetricAdmitted(tenant)),
		shed:      ins.reg.Counter(MetricShed(tenant)),
		rejected:  ins.reg.Counter(MetricRejected(tenant)),
		share:     ins.reg.Gauge(MetricTenantShare(tenant)),
	}
	for c := Class(0); c < numClasses; c++ {
		ti.depth[c] = ins.reg.Gauge(MetricQueueDepth(tenant, c))
	}
	return ti
}
