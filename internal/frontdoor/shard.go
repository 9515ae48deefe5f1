package frontdoor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provenance"
	"repro/internal/rpcsched"
)

// shardedCore is the front-door machinery: tenants are
// hash-partitioned across power-of-two shards, each owning its
// tenants' bounded queues, token buckets, deadline sweep, and drain
// loop, so Submit → admit → dispatch touches only the owning shard's
// lock. What must stay whole-door lives in three places:
//
//   - Executor slots are a CAS semaphore on c.inflight: a shard
//     reserves a slot before scanning its queues and returns it if
//     every queued query was deferred. The semaphore is the only
//     cross-shard synchronization on the admit path and it is a single
//     atomic word — no mutex, no parking on the fast path.
//
//   - The load view the learned AdmissionHead scores on (total queue
//     depth, class depths, in-flight count, service-time EWMA) is
//     published via atomics and read as a snapshot at decision time
//     (see snapshot); feature vectors stay coherent to within one
//     atomic-load window without locking every shard.
//
//   - Conservation (admitted+shed+rejected == submitted) holds as a
//     sum over per-shard terminal buckets: every ticket's terminal
//     transition happens under its owner shard's lock, including
//     admissions performed by a stealing shard, which run entirely
//     under the victim's lock (see stealPass).
//
// Each shard's drain loop doubles as a work-stealer: after its own
// queues are drained, an idle shard scans peers (cheap lock-free
// qlen peek, then TryLock) and admits a bounded batch from a hot
// shard's backlog, morsel-style — PR 8's intra-work-order stealing,
// one level up.
type shardedCore struct {
	opts *Options
	ins  *instruments

	shards []*shard
	mask   uint32

	closed atomic.Bool
	// inflight is the executor-slot semaphore (CAS-bounded by
	// opts.MaxInFlight) and the whole-door in-flight count.
	inflight atomic.Int64
	// queued / queuedClass mirror the summed per-shard queue
	// occupancy for lock-free feature snapshots and steal checks.
	queued      atomic.Int64
	queuedClass [numClasses]atomic.Int64
	// avgDurBits is the service-time EWMA (seconds), stored as
	// Float64bits and advanced by CAS from completion goroutines.
	avgDurBits atomic.Uint64
	// submitSeq hands out flight-recorder provenance IDs unique across
	// shards.
	submitSeq atomic.Int64
	// tenantCount enforces MaxTenants globally (tenant maps are
	// per-shard, so the cap cannot ride any single map's length).
	tenantCount atomic.Int64
	// steals counts cross-shard admissions (work-stealing hits).
	steals atomic.Int64

	pending rpcsched.Inflight // executing queries (shutdown drain)
	loopWG  sync.WaitGroup
}

// shard owns one hash partition of the tenant space. All non-atomic
// fields are guarded by mu; the drain goroutine, submitters, and
// stealing peers all synchronize on it — and nothing else.
type shard struct {
	core *shardedCore
	id   int

	mu          sync.Mutex
	tenants     map[string]*tenant
	order       []string // round-robin tenant order
	rrNext      int
	queued      int
	queuedClass [numClasses]int
	inflight    int // executing queries owned by this shard's tenants
	closed      bool

	// Per-shard terminal buckets; Stats sums them.
	submitted, admitted, shed, rejected int64
	// stolen counts admissions of this shard's queries performed by a
	// peer's drain loop (the victim-side view of c.steals).
	stolen int64

	// qlen mirrors queued for lock-free peeks by stealing peers.
	qlen atomic.Int64

	wake chan struct{}
	quit chan struct{}

	// provFeat/provScore are mu-guarded flight-recorder scratch.
	provFeat  []float64
	provScore [1]float64

	ins shardInstruments
}

// newShardedCore builds and starts the sharded core.
func newShardedCore(owner *FrontDoor) *shardedCore {
	c := &shardedCore{
		opts: &owner.opts,
		ins:  owner.ins,
	}
	n := owner.opts.Shards // already a power of two (withDefaults)
	c.shards = make([]*shard, n)
	c.mask = uint32(n - 1)
	for i := range c.shards {
		c.shards[i] = &shard{
			core:    c,
			id:      i,
			tenants: make(map[string]*tenant),
			wake:    make(chan struct{}, 1),
			quit:    make(chan struct{}),
			ins:     c.ins.forShard(i),
		}
	}
	for _, sh := range c.shards {
		c.loopWG.Add(1)
		go sh.drainLoop()
	}
	return c
}

// shardFor maps a tenant to its owning shard (FNV-1a over the name,
// masked to the power-of-two shard count).
func (c *shardedCore) shardFor(tenant string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= 16777619
	}
	return c.shards[h&c.mask]
}

// snapshot assembles the whole-door load view from the published
// atomics. The fields are read at slightly different instants (they
// are independent atomic loads, not one sealed epoch), which is the
// documented coherence contract: each value is exact at its own load,
// and the vector as a whole is coherent to within the few nanoseconds
// the loads span — without taking any shard's lock.
func (c *shardedCore) snapshot() loadSnapshot {
	return loadSnapshot{
		queued:    int(c.queued.Load()),
		queuedLat: int(c.queuedClass[ClassLatency].Load()),
		inflight:  int(c.inflight.Load()),
		avgDur:    math.Float64frombits(c.avgDurBits.Load()),
	}
}

// acquireSlot reserves one executor slot if any is free.
func (c *shardedCore) acquireSlot() bool {
	max := int64(c.opts.MaxInFlight)
	for {
		cur := c.inflight.Load()
		if cur >= max {
			return false
		}
		if c.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// releaseSlot returns an unused reservation (the deferred-everything
// path; completions release via completeOne, which also kicks).
func (c *shardedCore) releaseSlot() { c.inflight.Add(-1) }

// observeDur folds one service time into the EWMA via CAS.
func (c *shardedCore) observeDur(d float64) {
	for {
		old := c.avgDurBits.Load()
		cur := math.Float64frombits(old)
		next := d
		if cur != 0 {
			next = 0.9*cur + 0.1*d
		}
		if c.avgDurBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// kickQueued wakes the drain loop of every shard with queued work
// (non-blocking; lock-free qlen peek), skipping except — the caller
// already drained it inline. Called when a slot frees with work still
// queued. Shards whose backlog is deferred-only are retried by their
// own sweep tickers, so a stale-zero peek cannot strand work.
func (c *shardedCore) kickQueued(except *shard) {
	for _, sh := range c.shards {
		if sh == except || sh.qlen.Load() == 0 {
			continue
		}
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// submit validates, rate-limits, and enqueues t (FrontDoor.Submit),
// touching only the owning shard's lock, then runs an inline dispatch
// pass: on the hot path (free slot, admit verdict) a query goes
// submit → admit → execute in the submitter's goroutine, with no
// cross-goroutine handoff and full parallelism across shards.
func (c *shardedCore) submit(t *Ticket) (*Ticket, error) {
	q := t.Query
	t.provID = c.submitSeq.Add(1)
	sh := c.shardFor(q.Tenant)
	sh.mu.Lock()
	sh.submitted++
	if c.closed.Load() || sh.closed {
		return sh.rejectLocked(t, nil, "shutdown")
	}
	tn, ok := sh.tenants[q.Tenant]
	if !ok {
		// Reserve a tenant slot against the global cap before
		// creating: per-shard maps can't see each other's sizes.
		if c.tenantCount.Add(1) > int64(c.opts.MaxTenants) {
			c.tenantCount.Add(-1)
			return sh.rejectLocked(t, nil, "tenant_limit")
		}
		tn = &tenant{name: q.Tenant}
		tn.bucket.init(c.opts.Rate, c.opts.Burst, t.enq)
		tn.ins = c.ins.forTenant(q.Tenant)
		sh.tenants[q.Tenant] = tn
		sh.order = append(sh.order, q.Tenant)
	}
	tn.submitted++
	tn.ins.submitted.Inc()
	if !tn.bucket.allow(t.enq) {
		return sh.rejectLocked(t, tn, "rate_limit")
	}
	if q.Class < 0 || q.Class >= numClasses {
		return sh.rejectLocked(t, tn, "bad_class")
	}
	if len(tn.queues[q.Class]) >= c.opts.QueueCap {
		return sh.rejectLocked(t, tn, "queue_full")
	}
	tn.queues[q.Class] = append(tn.queues[q.Class], t)
	sh.queued++
	sh.queuedClass[q.Class]++
	sh.qlen.Store(int64(sh.queued))
	c.queued.Add(1)
	c.queuedClass[q.Class].Add(1)
	tn.ins.depth[q.Class].Set(float64(len(tn.queues[q.Class])))
	sh.ins.queued.Set(float64(sh.queued))
	c.ins.queued.Set(float64(c.queued.Load()))
	sh.mu.Unlock()

	sh.dispatch()
	return t, nil
}

// rejectLocked resolves t as rejected and releases the shard lock.
func (sh *shard) rejectLocked(t *Ticket, tn *tenant, reason string) (*Ticket, error) {
	sh.rejected++
	if tn != nil {
		tn.rejected++
		tn.ins.rejected.Inc()
	} else {
		sh.core.ins.forTenant(t.Query.Tenant).rejected.Inc()
	}
	t.state = stateResolved
	sh.mu.Unlock()
	t.done <- Disposition{Outcome: OutcomeRejected, Reason: reason}
	return t, fmt.Errorf("frontdoor: rejected: %s", reason)
}

// cancel withdraws a queued ticket (Ticket.Cancel).
func (c *shardedCore) cancel(t *Ticket) {
	sh := c.shardFor(t.Query.Tenant)
	sh.mu.Lock()
	if t.state != stateQueued {
		sh.mu.Unlock()
		return
	}
	tn := sh.tenants[t.Query.Tenant]
	q := tn.queues[t.Query.Class]
	for i, qt := range q {
		if qt == t {
			tn.queues[t.Query.Class] = append(q[:i], q[i+1:]...)
			break
		}
	}
	sh.shedLocked(t, tn, "cancelled")
	sh.mu.Unlock()
}

// shedLocked marks an (already dequeued) ticket shed. Caller holds
// sh.mu and has removed t from its queue.
func (sh *shard) shedLocked(t *Ticket, tn *tenant, reason string) {
	c := sh.core
	t.state = stateResolved
	sh.shed++
	sh.queued--
	sh.queuedClass[t.Query.Class]--
	sh.qlen.Store(int64(sh.queued))
	c.queued.Add(-1)
	c.queuedClass[t.Query.Class].Add(-1)
	tn.shed++
	tn.ins.shed.Inc()
	tn.ins.depth[t.Query.Class].Set(float64(len(tn.queues[t.Query.Class])))
	sh.ins.queued.Set(float64(sh.queued))
	c.ins.queued.Set(float64(c.queued.Load()))
	c.opts.Provenance.JoinOutcome(provenance.KindAdmit, t.provID, provenance.Outcome{Shed: true})
	c.opts.SLO.Observe(t.Query.Tenant, t.Query.Class.String(), false)
	t.done <- Disposition{Outcome: OutcomeShed, Reason: reason, Wait: time.Since(t.enq)}
}

// drainLoop is one shard's admission loop: drain own queues, then try
// to help a hot peer, then sleep until kicked (submission inline
// dispatch handles the common case; the loop covers deferred work,
// deadline sweeps, and stealing).
func (sh *shard) drainLoop() {
	c := sh.core
	defer c.loopWG.Done()
	ticker := time.NewTicker(c.opts.SweepInterval)
	defer ticker.Stop()
	for {
		sh.dispatch()
		c.stealPass(sh)
		select {
		case <-sh.wake:
		case <-ticker.C:
			sh.sweep()
		case <-sh.quit:
			return
		}
	}
}

// dispatch runs one admission pass over this shard's queues. It is the
// hot path (inline on every submit and completion), so it does not scan
// for expired deadlines — admitOneLocked sheds expired heads as it
// meets them, and the periodic sweep clears the rest.
func (sh *shard) dispatch() {
	now := time.Now()
	sh.mu.Lock()
	if !sh.closed {
		sh.drainQueuesLocked(now)
	}
	sh.mu.Unlock()
}

// sweep is the ticker pass: shed every queued query whose deadline
// already passed, then drain. Only here is the full O(queued) expiry
// scan paid.
func (sh *shard) sweep() {
	now := time.Now()
	sh.mu.Lock()
	if !sh.closed {
		sh.expireLocked(now)
		sh.drainQueuesLocked(now)
	}
	sh.mu.Unlock()
}

// drainQueuesLocked admits queued queries while executor slots last.
// Caller holds sh.mu.
func (sh *shard) drainQueuesLocked(now time.Time) {
	c := sh.core
	for sh.queued > 0 {
		if !c.acquireSlot() {
			return
		}
		if !sh.admitWithSlotLocked(now) {
			c.releaseSlot() // everything left was deferred
			return
		}
	}
}

// admitWithSlotLocked consumes the caller's slot reservation on the
// first admittable query, shedding Shed-verdict heads along the way.
// It reports whether the slot was used; false means every queued query
// was deferred.
func (sh *shard) admitWithSlotLocked(now time.Time) bool {
	for {
		switch sh.admitOneLocked(now) {
		case admitAdmitted:
			return true
		case admitShed:
			// Progress without consuming the slot: rescan.
		default:
			return false
		}
	}
}

type admitResult int

const (
	admitDeferred admitResult = iota // nothing admittable this pass
	admitAdmitted                    // dequeued and dispatched one query
	admitShed                        // dequeued and shed one query
)

// admitOneLocked scans for one admittable query (latency class first,
// round-robin across tenants) and resolves it. The round-robin cursor
// is per-shard, so a hot tenant cannot starve co-hashed tenants: while
// both have queued work their heads are decided alternately.
func (sh *shard) admitOneLocked(now time.Time) admitResult {
	c := sh.core
	n := len(sh.order)
	for cl := Class(0); cl < numClasses; cl++ {
		if cl == ClassThroughput {
			// Cross-shard class priority: the latency class drains
			// first door-wide, not just per shard. Before handing a
			// slot to bulk work, yield if another shard has latency
			// queries queued (this shard's own latency heads were
			// already scanned above — if any are still queued the
			// controller deferred them, which falls through to
			// bulk). The owning shard
			// was kicked when that query arrived and is kicked again
			// on every completion; our own drain loop retries on the
			// same signals, so the yield costs one pass, not a stall.
			remote := int(c.queuedClass[ClassLatency].Load()) - sh.queuedClass[ClassLatency]
			if remote > 0 {
				return admitDeferred
			}
		}
		for i := 0; i < n; i++ {
			tn := sh.tenants[sh.order[(sh.rrNext+i)%n]]
			q := tn.queues[cl]
			if len(q) == 0 {
				continue
			}
			t := q[0]
			if t.Query.Deadline > 0 && now.Sub(t.enq) > t.Query.Deadline {
				// Expired while queued: shed instead of running a query
				// that can only produce a late answer. (The periodic
				// sweep clears expired entries behind the head.)
				tn.queues[cl] = q[1:]
				if len(tn.queues[cl]) == 0 {
					tn.queues[cl] = nil
				}
				sh.shedLocked(t, tn, "deadline")
				return admitShed
			}
			fillFeatures(&t.feat, c.opts, tn, t, now, c.snapshot())
			dec := c.opts.Controller.Decide(&t.feat, t.Query)
			if dec != Defer {
				// Flight-record terminal verdicts (defers are transient:
				// the same query is re-decided on a later pass).
				sh.provFeat = recordAdmission(c.opts, t, dec, sh.provFeat, &sh.provScore)
			}
			switch dec {
			case Admit:
				tn.queues[cl] = q[1:]
				if len(tn.queues[cl]) == 0 {
					tn.queues[cl] = nil // release the drained backing array
				}
				sh.rrNext = (sh.rrNext + i + 1) % n
				sh.admitLocked(t, tn, now)
				return admitAdmitted
			case Shed:
				tn.queues[cl] = q[1:]
				if len(tn.queues[cl]) == 0 {
					tn.queues[cl] = nil
				}
				sh.shedLocked(t, tn, "load")
				return admitShed
			case Defer:
				// Leave queued; try other tenants/classes.
			}
		}
	}
	return admitDeferred
}

// admitLocked hands t the executor slot the caller already reserved.
// Caller holds sh.mu and has dequeued t.
func (sh *shard) admitLocked(t *Ticket, tn *tenant, now time.Time) {
	c := sh.core
	t.state = stateAdmitted
	sh.admitted++
	sh.queued--
	sh.queuedClass[t.Query.Class]--
	sh.qlen.Store(int64(sh.queued))
	c.queued.Add(-1)
	c.queuedClass[t.Query.Class].Add(-1)
	sh.inflight++
	tn.admitted++
	tn.inflight++
	tn.ins.admitted.Inc()
	tn.ins.depth[t.Query.Class].Set(float64(len(tn.queues[t.Query.Class])))
	if g := c.inflight.Load(); g > 0 {
		tn.ins.share.Set(float64(tn.inflight) / float64(g))
	}
	sh.ins.queued.Set(float64(sh.queued))
	sh.ins.inflight.Set(float64(sh.inflight))
	c.ins.queued.Set(float64(c.queued.Load()))
	c.ins.inflight.Set(float64(c.inflight.Load()))
	wait := now.Sub(t.enq)
	c.ins.wait[t.Query.Class].Observe(wait.Seconds())
	c.pending.Add()
	go sh.run(t, tn, wait)
}

// run executes an admitted query on the backend and delivers its
// disposition. Runs in its own goroutine; sh is always the ticket's
// owner shard, even for stolen admissions.
func (sh *shard) run(t *Ticket, tn *tenant, wait time.Duration) {
	c := sh.core
	defer c.pending.Done()
	started := time.Now()
	res, err := c.opts.Backend.Run(t.Query)
	dur := time.Since(started)
	latency := wait + dur

	met := err == nil && (t.Query.Deadline <= 0 || latency <= t.Query.Deadline)
	c.opts.Controller.Observe(&t.feat, t.Query, met)
	joinAdmitted(c.opts, t, res, latency, dur, met)
	c.opts.SLO.Observe(t.Query.Tenant, t.Query.Class.String(), met)
	if res != nil {
		est := c.opts.Estimator // internally locked
		for k, d := range res.OpDurations {
			est.ObserveCompletion(k, d, res.OpMemory[k])
		}
	}

	sh.mu.Lock()
	sh.inflight--
	tn.inflight--
	tnInflight := tn.inflight
	shInflight := sh.inflight
	sh.mu.Unlock()

	c.observeDur(dur.Seconds())
	remaining := c.inflight.Add(-1) // release the executor slot
	if remaining > 0 {
		tn.ins.share.Set(float64(tnInflight) / float64(remaining))
	} else {
		tn.ins.share.Set(0)
	}
	sh.ins.inflight.Set(float64(shInflight))
	c.ins.inflight.Set(float64(remaining))
	if c.queued.Load() > 0 {
		// Completion-side inline dispatch: this goroutine just freed a
		// slot, so drain the owner shard right here (cache-warm, no
		// handoff), then steal from backlogged peers while slots last.
		// Only work it could not serve itself (slots exhausted, peer
		// lock busy) falls back to waking the owners' drain loops.
		sh.dispatch()
		if c.queued.Load() > 0 {
			c.stealPass(sh)
			c.kickQueued(sh)
		}
	}

	c.ins.latency[t.Query.Class].Observe(latency.Seconds())
	if t.Query.Deadline > 0 {
		if met {
			c.ins.deadlineMet.Inc()
		} else {
			c.ins.deadlineMissed.Inc()
		}
	}
	t.done <- Disposition{
		Outcome: OutcomeAdmitted, Wait: wait, Latency: latency,
		DeadlineMet: met, Err: err,
	}
}

// expireLocked sheds every queued query whose deadline has passed:
// running it could only produce a late answer. Caller holds sh.mu.
func (sh *shard) expireLocked(now time.Time) {
	for _, name := range sh.order {
		tn := sh.tenants[name]
		for c := Class(0); c < numClasses; c++ {
			q := tn.queues[c]
			kept := q[:0]
			for _, t := range q {
				if t.Query.Deadline > 0 && now.Sub(t.enq) > t.Query.Deadline {
					tn.queues[c] = kept // shedLocked reads the queue for depth
					sh.shedLocked(t, tn, "deadline")
					continue
				}
				kept = append(kept, t)
			}
			tn.queues[c] = kept
			tn.ins.depth[c].Set(float64(len(kept)))
		}
	}
}

// stealBudget bounds how many queries one steal pass admits from a
// single victim: enough to matter, small enough that the thief never
// monopolizes the victim's lock.
const stealBudget = 8

// stealPass lets an idle shard drain a hot peer's backlog. The
// protocol keeps conservation trivially intact: the thief runs the
// victim's own admission pass under the victim's lock (acquired with
// TryLock so it never queues behind the owner), so every stolen
// query's bookkeeping — terminal buckets, gauges, tenant round-robin —
// happens exactly where an owner-admitted query's would. Only the
// thief's goroutine, the slot semaphore, and the steal counters know
// the difference.
func (c *shardedCore) stealPass(thief *shard) {
	if len(c.shards) == 1 || c.closed.Load() || c.queued.Load() == 0 {
		return
	}
	n := len(c.shards)
	for i := 1; i < n; i++ {
		v := c.shards[(thief.id+i)%n]
		if v.qlen.Load() == 0 {
			continue
		}
		if !v.mu.TryLock() {
			continue // owner (or another thief) is already on it
		}
		moved := 0
		if !v.closed {
			now := time.Now()
			for v.queued > 0 && moved < stealBudget {
				if !c.acquireSlot() {
					break
				}
				if !v.admitWithSlotLocked(now) {
					c.releaseSlot()
					break
				}
				moved++
			}
			v.stolen += int64(moved)
		}
		v.mu.Unlock()
		if moved > 0 {
			c.steals.Add(int64(moved))
			c.ins.steals.Add(int64(moved))
		}
		if c.inflight.Load() >= int64(c.opts.MaxInFlight) {
			return // no slots left; nothing more to steal into
		}
	}
}

// draining reports whether shutdown has begun.
func (c *shardedCore) draining() bool { return c.closed.Load() }

// stats sums the per-shard terminal buckets. Each shard is read under
// its own lock; the shards are not frozen together, so mid-churn sums
// may straddle transitions — after a quiesce they are exact.
func (c *shardedCore) stats() Stats {
	var s Stats
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Submitted += sh.submitted
		s.Admitted += sh.admitted
		s.Shed += sh.shed
		s.Rejected += sh.rejected
		s.Queued += sh.queued
		s.InFlight += sh.inflight
		sh.mu.Unlock()
	}
	return s
}

// status snapshots the core for the obs /frontdoor endpoint, including
// the per-shard breakdown.
func (c *shardedCore) status() StatusData {
	st := StatusData{
		Controller: c.opts.Controller.Name(),
		AvgRunSecs: math.Float64frombits(c.avgDurBits.Load()),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		ss := ShardStatus{
			Shard:     sh.id,
			Tenants:   len(sh.order),
			Queued:    sh.queued,
			InFlight:  sh.inflight,
			Submitted: sh.submitted,
			Admitted:  sh.admitted,
			Shed:      sh.shed,
			Rejected:  sh.rejected,
			Stolen:    sh.stolen,
		}
		for _, name := range sh.order {
			st.Tenants = append(st.Tenants, tenantStatusOf(sh.tenants[name]))
		}
		sh.mu.Unlock()
		st.Shards = append(st.Shards, ss)
		st.InFlight += ss.InFlight
		st.Queued += ss.Queued
		st.Submitted += ss.Submitted
		st.Admitted += ss.Admitted
		st.Shed += ss.Shed
		st.Rejected += ss.Rejected
	}
	return st
}

// shutdown stops the core (FrontDoor.Shutdown): mark closed, shed
// every queued query shard by shard, stop the drain loops, then wait
// out the in-flight queries.
func (c *shardedCore) shutdown(drainTimeout time.Duration) bool {
	if !c.closed.CompareAndSwap(false, true) {
		return c.pending.Wait(drainTimeout)
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.closed = true
		for _, name := range sh.order {
			tn := sh.tenants[name]
			for cl := Class(0); cl < numClasses; cl++ {
				pending := tn.queues[cl]
				tn.queues[cl] = nil
				for _, t := range pending {
					sh.shedLocked(t, tn, "shutdown")
				}
			}
		}
		sh.mu.Unlock()
		close(sh.quit)
	}
	c.loopWG.Wait()
	return c.pending.Wait(drainTimeout)
}
