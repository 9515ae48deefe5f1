package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/metrics"
	"repro/internal/rpcsched"
)

// ErrNoNodes is returned when no routable (healthy, non-draining) node
// exists for a query.
var ErrNoNodes = errors.New("cluster: no routable node")

// ErrShutdown is delivered to queries still queued when the
// coordinator closes.
var ErrShutdown = errors.New("cluster: coordinator shut down")

// Options configures a Coordinator.
type Options struct {
	// Policy picks a node per query (default LeastLoaded).
	Policy Policy
	// MaxPerNode bounds concurrently dispatched queries per node
	// (default 8); excess queries queue at the coordinator, where a
	// node failure can still re-dispatch them.
	MaxPerNode int
	// HeartbeatInterval paces health probes (default 500ms). A probe
	// failure marks the node unroutable; a success marks it routable
	// again, so the gauge flips within one interval of a kill or a
	// recovery.
	HeartbeatInterval time.Duration
	// RedispatchBudget bounds how many times one query is re-routed
	// after node failures before it fails (default 3).
	RedispatchBudget int
	// Metrics instruments the coordinator: cluster_* counters plus a
	// cluster_node_healthy{node=...} gauge per member (nil disables).
	Metrics *metrics.Registry
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Policy == nil {
		out.Policy = LeastLoaded{}
	}
	if out.MaxPerNode <= 0 {
		out.MaxPerNode = 8
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 500 * time.Millisecond
	}
	if out.RedispatchBudget <= 0 {
		out.RedispatchBudget = 3
	}
	return out
}

// submitOutcome is a ticket's terminal answer.
type submitOutcome struct {
	res *frontdoor.Result
	err error
}

// ticket is one query moving through the router.
type ticket struct {
	req frontdoor.Request
	// predDur is the front door's price for the query (Query.PredDur),
	// the unit of every member's predLoad.
	predDur  float64
	attempts int // routes consumed (first route = 1)
	done     chan submitOutcome
}

// member is the coordinator's state for one node.
type member struct {
	id     string
	client NodeClient

	healthy       bool
	draining      bool
	policyVersion int
	probing       bool

	queue    []*ticket // routed, not yet dispatched
	started  int       // dispatched, awaiting reply
	predLoad float64   // predicted seconds of queued + started work

	routed, completed, failed int64

	kick     chan struct{}
	gHealthy *metrics.Gauge
}

// Coordinator routes admitted queries across worker nodes. It
// implements frontdoor.Backend, so mounting it as a front door's
// backend gives the cluster central admission control for free. Build
// with New, register nodes with AddNode, then Start; stop with Close.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	members []*member
	started bool
	closed  bool

	routed, completed, failed, redispatched, unroutable int64

	pending rpcsched.Inflight // dispatched Submit calls in flight
	quit    chan struct{}
	wg      sync.WaitGroup

	cRouted, cCompleted, cFailed, cRedispatched *metrics.Counter
}

// New builds a coordinator (no nodes yet, not started).
func New(opts Options) *Coordinator {
	o := opts.withDefaults()
	c := &Coordinator{opts: o, quit: make(chan struct{})}
	if reg := o.Metrics; reg != nil {
		c.cRouted = reg.Counter("cluster_routed_total")
		c.cCompleted = reg.Counter("cluster_completed_total")
		c.cFailed = reg.Counter("cluster_failed_total")
		c.cRedispatched = reg.Counter("cluster_redispatched_total")
	}
	return c
}

// AddNode registers a node (before Start). Nodes start healthy; the
// first heartbeat corrects optimism.
func (c *Coordinator) AddNode(id string, client NodeClient) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("cluster: AddNode after Start")
	}
	for _, m := range c.members {
		if m.id == id {
			return fmt.Errorf("cluster: duplicate node ID %q", id)
		}
	}
	m := &member{id: id, client: client, healthy: true, kick: make(chan struct{}, 1)}
	if reg := c.opts.Metrics; reg != nil {
		m.gHealthy = reg.Gauge(metrics.LabeledName("cluster_node_healthy", "node", id))
	}
	m.gHealthy.Set(1)
	c.members = append(c.members, m)
	return nil
}

// Start launches the per-node dispatch loops and the heartbeat.
func (c *Coordinator) Start() error {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return fmt.Errorf("cluster: already started")
	}
	if len(c.members) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no nodes registered")
	}
	c.started = true
	members := c.members
	c.mu.Unlock()
	for _, m := range members {
		c.wg.Add(1)
		go c.dispatchLoop(m)
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
	return nil
}

// Run implements frontdoor.Backend: route the query to a node, wait
// for its reply, re-dispatching across node failures. Load-aware
// routing weighs nodes by the price the query carries (q.PredDur, set
// by the front door that admitted it and trained by the Results this
// method returns to that door); the coordinator prices nothing itself.
func (c *Coordinator) Run(q *frontdoor.Query) (*frontdoor.Result, error) {
	t := &ticket{
		req:     requestFromQuery(q),
		predDur: q.PredDur,
		done:    make(chan submitOutcome, 1),
	}
	if err := c.route(t); err != nil {
		return nil, err
	}
	out := <-t.done
	return out.res, out.err
}

// requestFromQuery rebuilds the wire request for an already-admitted
// query (the node re-validates; both ends of the conversion are the
// same validated vocabulary).
func requestFromQuery(q *frontdoor.Query) frontdoor.Request {
	ops := make([]frontdoor.OpSpec, len(q.Ops))
	for i, ow := range q.Ops {
		ops[i] = frontdoor.OpSpec{Type: ow.Key, Blocks: ow.Units}
	}
	return frontdoor.Request{
		Tenant:     q.Tenant,
		Class:      q.Class.String(),
		DeadlineMS: int64(q.Deadline / time.Millisecond),
		Ops:        ops,
	}
}

// route assigns t to a node picked by the policy over the routable
// views. The returned error (no routable node, shutdown) is terminal
// for the query and already counted as failed.
func (c *Coordinator) route(t *ticket) error {
	c.mu.Lock()
	if c.closed {
		c.failed++
		c.cFailed.Inc()
		c.mu.Unlock()
		return ErrShutdown
	}
	views := make([]NodeView, 0, len(c.members))
	for i, m := range c.members {
		if !m.healthy || m.draining {
			continue
		}
		views = append(views, NodeView{
			Index: i, ID: m.id,
			Started: m.started, Queued: len(m.queue), PredLoad: m.predLoad,
		})
	}
	if len(views) == 0 {
		c.unroutable++
		c.failed++
		c.cFailed.Inc()
		c.mu.Unlock()
		return ErrNoNodes
	}
	pick := c.opts.Policy.Pick(views, t.req.Tenant)
	if pick < 0 || pick >= len(views) {
		pick = 0
	}
	m := c.members[views[pick].Index]
	t.attempts++
	if t.attempts == 1 {
		c.routed++
		c.cRouted.Inc()
	} else {
		c.redispatched++
		c.cRedispatched.Inc()
	}
	m.routed++
	m.queue = append(m.queue, t)
	m.predLoad += t.predDur
	c.mu.Unlock()
	kick(m)
	return nil
}

// kick wakes a member's dispatch loop (non-blocking).
func kick(m *member) {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// dispatchLoop fills one node's dispatch slots from its queue.
func (c *Coordinator) dispatchLoop(m *member) {
	defer c.wg.Done()
	for {
		select {
		case <-m.kick:
		case <-c.quit:
			return
		}
		c.mu.Lock()
		for m.healthy && !m.draining && m.started < c.opts.MaxPerNode && len(m.queue) > 0 {
			t := m.queue[0]
			m.queue = m.queue[1:]
			m.started++
			c.pending.Add()
			go c.runOne(m, t)
		}
		c.mu.Unlock()
	}
}

// runOne dispatches one ticket to its node and resolves it. A
// transport failure marks the node down and re-dispatches both this
// ticket and everything still queued on the member.
func (c *Coordinator) runOne(m *member, t *ticket) {
	defer c.pending.Done()
	reply, err := m.client.Submit(&SubmitRequest{Req: t.req})

	c.mu.Lock()
	m.started--
	m.predLoad -= t.predDur
	if m.predLoad < 0 {
		m.predLoad = 0
	}
	switch {
	case err != nil:
		// Node failure: whether the query executed is unknowable, so
		// re-dispatch is at-least-once. Everything queued on the member
		// re-routes with it.
		orphans := c.markDownLocked(m)
		c.mu.Unlock()
		c.redispatch(t)
		for _, o := range orphans {
			c.redispatch(o)
		}
		return
	case reply.Draining:
		// Drain refusal: mark unroutable (the heartbeat clears it if
		// the drain is lifted) and route this query elsewhere.
		m.draining = true
		orphans := c.takeQueueLocked(m)
		c.mu.Unlock()
		c.redispatch(t)
		for _, o := range orphans {
			c.redispatch(o)
		}
		return
	case reply.Err != "":
		m.failed++
		c.failed++
		c.cFailed.Inc()
		c.mu.Unlock()
		t.done <- submitOutcome{err: errors.New(reply.Err)}
	default:
		m.completed++
		c.completed++
		c.cCompleted.Inc()
		c.mu.Unlock()
		var res *frontdoor.Result
		if len(reply.OpDurations) > 0 || len(reply.OpMemory) > 0 {
			res = &frontdoor.Result{OpDurations: reply.OpDurations, OpMemory: reply.OpMemory}
		}
		t.done <- submitOutcome{res: res}
	}
	kick(m) // a slot freed; pull the next queued ticket
}

// markDownLocked marks a member unroutable and strips its queue for
// re-dispatch. Caller holds c.mu.
func (c *Coordinator) markDownLocked(m *member) []*ticket {
	if m.healthy {
		m.healthy = false
		m.gHealthy.Set(0)
	}
	return c.takeQueueLocked(m)
}

// takeQueueLocked removes every queued (unstarted) ticket from a
// member, unwinding its load accounting. Caller holds c.mu.
func (c *Coordinator) takeQueueLocked(m *member) []*ticket {
	orphans := m.queue
	m.queue = nil
	for _, t := range orphans {
		m.predLoad -= t.predDur
	}
	if m.predLoad < 0 {
		m.predLoad = 0
	}
	return orphans
}

// redispatch re-routes a ticket after a node failure or drain
// refusal, failing it once the attempt budget is spent.
func (c *Coordinator) redispatch(t *ticket) {
	if t.attempts > c.opts.RedispatchBudget {
		c.mu.Lock()
		c.failed++
		c.cFailed.Inc()
		c.mu.Unlock()
		t.done <- submitOutcome{err: fmt.Errorf(
			"cluster: query failed after %d dispatch attempts: %w", t.attempts, ErrNodeDown)}
		return
	}
	if err := c.route(t); err != nil {
		t.done <- submitOutcome{err: err}
	}
}

// heartbeatLoop probes every member each interval. Probes run in their
// own goroutines (a hung node must not stall the others); a member is
// probed again only after its previous probe returns.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		c.mu.Lock()
		for _, m := range c.members {
			if m.probing {
				continue
			}
			m.probing = true
			c.wg.Add(1)
			go c.probe(m)
		}
		c.mu.Unlock()
		select {
		case <-ticker.C:
		case <-c.quit:
			return
		}
	}
}

// probe runs one health check against a member.
func (c *Coordinator) probe(m *member) {
	defer c.wg.Done()
	hr, err := m.client.Health()
	c.mu.Lock()
	m.probing = false
	if err != nil {
		orphans := c.markDownLocked(m)
		c.mu.Unlock()
		for _, o := range orphans {
			c.redispatch(o)
		}
		return
	}
	wasRoutable := m.healthy && !m.draining
	if !m.healthy {
		m.healthy = true
		m.gHealthy.Set(1)
	}
	m.draining = hr.Draining
	m.policyVersion = hr.PolicyVersion
	routable := m.healthy && !m.draining
	// A member that just became unroutable may hold queued tickets that
	// no in-flight submit will ever come back to strip (e.g. the drain
	// was observed by probe before anything dispatched). Strip them here
	// or they are stranded forever.
	var orphans []*ticket
	if !routable {
		orphans = c.takeQueueLocked(m)
	}
	c.mu.Unlock()
	for _, o := range orphans {
		c.redispatch(o)
	}
	if routable && !wasRoutable {
		kick(m) // rejoined: resume dispatching
	}
}

// NodeStatus is one member's /cluster view.
type NodeStatus struct {
	ID            string  `json:"id"`
	Healthy       bool    `json:"healthy"`
	Draining      bool    `json:"draining,omitempty"`
	PolicyVersion int     `json:"policy_version"`
	InFlight      int     `json:"in_flight"`
	Queued        int     `json:"queued"`
	PredLoadSecs  float64 `json:"pred_load_secs"`
	Routed        int64   `json:"routed"`
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed"`
}

// Status is the /cluster payload: per-node health plus the
// coordinator's conservation counters (routed == completed + failed
// once drained; redispatched counts extra routing legs, not queries).
type Status struct {
	Policy       string       `json:"policy"`
	Nodes        []NodeStatus `json:"nodes"`
	Routed       int64        `json:"routed"`
	Completed    int64        `json:"completed"`
	Failed       int64        `json:"failed"`
	Redispatched int64        `json:"redispatched"`
	Unroutable   int64        `json:"unroutable"`
}

// Status snapshots the cluster.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Policy:       c.opts.Policy.Name(),
		Routed:       c.routed,
		Completed:    c.completed,
		Failed:       c.failed,
		Redispatched: c.redispatched,
		Unroutable:   c.unroutable,
	}
	for _, m := range c.members {
		st.Nodes = append(st.Nodes, NodeStatus{
			ID: m.id, Healthy: m.healthy, Draining: m.draining,
			PolicyVersion: m.policyVersion,
			InFlight:      m.started, Queued: len(m.queue), PredLoadSecs: m.predLoad,
			Routed: m.routed, Completed: m.completed, Failed: m.failed,
		})
	}
	return st
}

// Close shuts the coordinator down: new routes are refused, queued
// tickets fail with ErrShutdown, and dispatched calls are drained
// (bounded by drainTimeout; <= 0 waits indefinitely). Node clients are
// closed. It reports whether the drain completed. Shut the front door
// down first — its drain resolves in-flight Run calls through the
// normal path.
func (c *Coordinator) Close(drainTimeout time.Duration) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.pending.Wait(drainTimeout)
	}
	c.closed = true
	var orphans []*ticket
	for _, m := range c.members {
		orphans = append(orphans, c.takeQueueLocked(m)...)
	}
	members := c.members
	started := c.started
	c.mu.Unlock()

	for _, t := range orphans {
		c.mu.Lock()
		c.failed++
		c.cFailed.Inc()
		c.mu.Unlock()
		t.done <- submitOutcome{err: ErrShutdown}
	}
	drained := c.pending.Wait(drainTimeout)
	close(c.quit)
	if started {
		c.wg.Wait()
	}
	for _, m := range members {
		m.client.Close() //nolint:errcheck
	}
	return drained
}
