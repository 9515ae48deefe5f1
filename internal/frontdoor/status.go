package frontdoor

// StatusData is the /frontdoor endpoint payload: terminal-bucket
// counts, live occupancy, per-tenant detail, and the per-shard
// breakdown.
type StatusData struct {
	Controller string  `json:"controller"`
	InFlight   int     `json:"in_flight"`
	Queued     int     `json:"queued"`
	Submitted  int64   `json:"submitted"`
	Admitted   int64   `json:"admitted"`
	Shed       int64   `json:"shed"`
	Rejected   int64   `json:"rejected"`
	AvgRunSecs float64 `json:"avg_run_secs"`

	Tenants []TenantStatus `json:"tenants,omitempty"`
	// Shards breaks occupancy and terminal counts down by shard.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// TenantStatus is one tenant's slice of the status payload.
type TenantStatus struct {
	Tenant          string `json:"tenant"`
	QueuedLatency   int    `json:"queued_latency"`
	QueuedThroughpt int    `json:"queued_throughput"`
	InFlight        int    `json:"in_flight"`
	Submitted       int64  `json:"submitted"`
	Admitted        int64  `json:"admitted"`
	Shed            int64  `json:"shed"`
	Rejected        int64  `json:"rejected"`
}

// ShardStatus is one shard's slice of the status payload. Stolen
// counts admissions of this shard's queries performed by a peer's
// drain loop (work-stealing).
type ShardStatus struct {
	Shard     int   `json:"shard"`
	Tenants   int   `json:"tenants"`
	Queued    int   `json:"queued"`
	InFlight  int   `json:"in_flight"`
	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Rejected  int64 `json:"rejected"`
	Stolen    int64 `json:"stolen"`
}

// tenantStatusOf snapshots one tenant under its owner's lock.
func tenantStatusOf(tn *tenant) TenantStatus {
	return TenantStatus{
		Tenant:          tn.name,
		QueuedLatency:   len(tn.queues[ClassLatency]),
		QueuedThroughpt: len(tn.queues[ClassThroughput]),
		InFlight:        tn.inflight,
		Submitted:       tn.submitted,
		Admitted:        tn.admitted,
		Shed:            tn.shed,
		Rejected:        tn.rejected,
	}
}
