package cluster

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// NodeView is what a routing policy sees of one routable node: its
// queue occupancy and the predicted O-DUR seconds of work already
// routed to it (queued + executing), at the price each query carried in
// from the front door (frontdoor.Query.PredDur).
type NodeView struct {
	// Index is the node's position in the coordinator's member list.
	Index int
	// ID names the node.
	ID string
	// Started counts queries dispatched and awaiting a reply.
	Started int
	// Queued counts queries routed but not yet dispatched.
	Queued int
	// PredLoad is the predicted total duration (seconds) of the node's
	// queued + started work.
	PredLoad float64
}

// Policy picks a node for one query. Pick receives only routable
// (healthy, non-draining) views, never an empty slice, and returns an
// index INTO views. Implementations must be safe for concurrent use.
type Policy interface {
	Name() string
	Pick(views []NodeView, tenant string) int
}

// LeastLoaded routes to the node with the least predicted in-flight
// work — the workload-aware policy: a node chewing one predicted-long
// query receives fewer new ones than a node draining short queries,
// which plain occupancy counting cannot see. Ties break toward lower
// occupancy, then lower index (deterministic).
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (LeastLoaded) Pick(views []NodeView, _ string) int {
	best := 0
	for i := 1; i < len(views); i++ {
		v, b := &views[i], &views[best]
		switch {
		case v.PredLoad < b.PredLoad:
			best = i
		case v.PredLoad == b.PredLoad && v.Started+v.Queued < b.Started+b.Queued:
			best = i
		}
	}
	return best
}

// RoundRobin cycles through the routable nodes — the workload-blind
// baseline the routing A/B benchmark compares least-loaded against.
type RoundRobin struct {
	n atomic.Uint64
}

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (r *RoundRobin) Pick(views []NodeView, _ string) int {
	return int((r.n.Add(1) - 1) % uint64(len(views)))
}

// TenantHash routes each tenant to a stable node (FNV-1a over the
// tenant name, modulo the live set), keeping a tenant's working set —
// buffer-pool residency, cost-model windows — on one node. Membership
// changes rehash tenants over the surviving nodes.
type TenantHash struct{}

// Name implements Policy.
func (TenantHash) Name() string { return "tenant-hash" }

// Pick implements Policy.
func (TenantHash) Pick(views []NodeView, tenant string) int {
	h := fnv.New64a()
	h.Write([]byte(tenant)) //nolint:errcheck
	return int(h.Sum64() % uint64(len(views)))
}

// PolicyByName resolves a routing policy from its CLI name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "least-loaded":
		return LeastLoaded{}, nil
	case "round-robin":
		return &RoundRobin{}, nil
	case "tenant-hash":
		return TenantHash{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown routing policy %q (least-loaded, round-robin, tenant-hash)", name)
}
