// Package cluster scales the single-process query stack out to a
// coordinator + N worker nodes. Each worker node wraps a live engine
// behind a frontdoor.Backend plus a hot-swappable policy slot and
// answers Submit/Health/Install/Drain over rpcsched connections; the
// coordinator implements frontdoor.Backend itself, so the existing
// admission front door becomes the cluster's front door — queries are
// admitted centrally, then routed to a node by a pluggable policy
// (least predicted load, tenant affinity, round-robin baseline).
//
// Failure semantics: a transport-level error on any node call marks
// the node unroutable and every query routed to it but not yet
// completed is re-dispatched to the surviving nodes under a bounded
// attempt budget, so the coordinator-level conservation invariant
//
//	submitted == completed + failed
//
// holds through node kills (execution is at-least-once: a query whose
// node died mid-run re-executes elsewhere). Health probes run on a
// heartbeat; a probe that succeeds against a previously-down node
// marks it routable again, which is how a restarted node rejoins.
//
// Policy rollout rides the existing lifecycle: the coordinator watches
// the policystore CURRENT pointer and pushes new checkpoint versions
// to every node's serving.HotAgent. A node whose install fails keeps
// serving its previous policy (install-or-rollback is per node); the
// coordinator reports the partial rollout and retries on the next
// sync, so the cluster either converges or says exactly which nodes
// did not.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/metrics"
	"repro/internal/policystore"
	"repro/internal/provenance"
	"repro/internal/rpcsched"
	"repro/internal/serving"
)

// ErrDraining is returned by Node.Run while the node is draining; the
// coordinator treats it as "unroutable, re-dispatch elsewhere" rather
// than a query failure.
var ErrDraining = errors.New("cluster: node draining")

// NodeOptions configures a worker node.
type NodeOptions struct {
	// ID names the node in health reports, provenance records, and
	// coordinator status (required).
	ID string
	// Backend executes routed queries (required) — typically
	// frontdoor.NewPlanPool over an EngineBackend for real nodes, a
	// stub for tests.
	Backend frontdoor.Backend
	// Hot is the node's serving policy slot; Install swaps it. Nil
	// disables policy rollout on this node (Install errors).
	Hot *serving.HotAgent
	// Loader builds a scheduler from a pushed checkpoint. Required when
	// Hot is set.
	Loader func(ck *policystore.Checkpoint) (engine.Scheduler, error)
	// Provenance, when set, is stamped with the node ID so spilled
	// traces from many nodes can be merged and still attributed.
	Provenance *provenance.Recorder
	// Metrics instruments the node (nil disables).
	Metrics *metrics.Registry
}

// Node is one worker: it executes queries the coordinator routes to it
// and hosts the policy slot rollouts target. Safe for concurrent use.
type Node struct {
	opts NodeOptions

	mu                sync.Mutex
	inflight          int
	draining          bool
	completed, failed int64

	pending rpcsched.Inflight

	gInFlight *metrics.Gauge
	cComplete *metrics.Counter
	cFailed   *metrics.Counter
}

// NewNode builds a worker node.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("cluster: NodeOptions.ID is required")
	}
	if opts.Backend == nil {
		return nil, fmt.Errorf("cluster: NodeOptions.Backend is required")
	}
	if opts.Hot != nil && opts.Loader == nil {
		return nil, fmt.Errorf("cluster: NodeOptions.Loader is required with Hot")
	}
	n := &Node{opts: opts}
	opts.Provenance.SetNodeID(opts.ID)
	if reg := opts.Metrics; reg != nil {
		n.gInFlight = reg.Gauge("node_inflight")
		n.cComplete = reg.Counter("node_completed_total")
		n.cFailed = reg.Counter("node_failed_total")
	}
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() string { return n.opts.ID }

// Run executes one routed query on the backend. While draining it
// refuses with ErrDraining without touching the failure counters —
// refusal is a routing signal, not an execution outcome.
func (n *Node) Run(q *frontdoor.Query) (*frontdoor.Result, error) {
	n.mu.Lock()
	if n.draining {
		n.mu.Unlock()
		return nil, ErrDraining
	}
	n.inflight++
	n.gInFlight.Set(float64(n.inflight))
	n.mu.Unlock()
	n.pending.Add()

	res, err := n.opts.Backend.Run(q)

	n.pending.Done()
	n.mu.Lock()
	n.inflight--
	n.gInFlight.Set(float64(n.inflight))
	if err != nil {
		n.failed++
		n.cFailed.Inc()
	} else {
		n.completed++
		n.cComplete.Inc()
	}
	n.mu.Unlock()
	return res, err
}

// Health snapshots the node for the coordinator's heartbeat.
func (n *Node) Health() HealthReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	hr := HealthReply{
		ID:        n.opts.ID,
		Draining:  n.draining,
		InFlight:  n.inflight,
		Completed: n.completed,
		Failed:    n.failed,
	}
	if n.opts.Hot != nil {
		hr.PolicyVersion = n.opts.Hot.ActiveVersion()
	}
	return hr
}

// Install builds a scheduler from the pushed checkpoint and swaps it
// into the serving slot. A load failure leaves the slot untouched —
// the node keeps serving its previous policy, which is the per-node
// rollback half of the rollout protocol.
func (n *Node) Install(version int, params []byte) error {
	if n.opts.Hot == nil {
		return fmt.Errorf("cluster: node %s has no policy slot", n.opts.ID)
	}
	ck := &policystore.Checkpoint{
		Manifest: policystore.Manifest{Version: version},
		Params:   params,
	}
	sched, err := n.opts.Loader(ck)
	if err != nil {
		return fmt.Errorf("cluster: node %s install v%d: %w", n.opts.ID, version, err)
	}
	n.opts.Hot.Install(sched, version)
	return nil
}

// PolicyVersion returns the serving policy's store version (0 without
// a policy slot).
func (n *Node) PolicyVersion() int {
	if n.opts.Hot == nil {
		return 0
	}
	return n.opts.Hot.ActiveVersion()
}

// Drain marks the node unroutable (Run refuses with ErrDraining) and
// waits for in-flight queries, bounded by timeout (<= 0 waits
// indefinitely). It reports whether the drain completed.
func (n *Node) Drain(timeout time.Duration) bool {
	n.mu.Lock()
	n.draining = true
	n.mu.Unlock()
	return n.pending.Wait(timeout)
}
