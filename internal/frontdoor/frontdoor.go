// Package frontdoor is the multi-tenant query ingress in front of the
// live engine: every arriving query is validated, rate-limited, and
// placed in its tenant's bounded per-SLO-class queue; admission passes
// drain the queues into a bounded executor-slot pool, consulting an
// admission Controller — the heuristic tail-drop baseline or the
// learned head on the LSched agent (fed by queue depth, in-flight
// counts, and the cost model's whole-plan O-DUR/O-MEM predictions) —
// for the admit / defer / shed decision. The HTTP ingress (http.go)
// layers on top.
//
// The machinery behind the FrontDoor facade is the sharded core
// (shard.go): tenants are hash-partitioned across power-of-two shards,
// each owning its tenants' queues, token buckets, deadline sweep, and
// drain loop, so Submit → admit → dispatch never crosses a global
// lock; cross-shard load state lives in atomics and executor slots are
// a CAS semaphore with bounded work-stealing.
//
// Every submitted query reaches exactly one terminal bucket, giving
// the conservation invariant the stress tests pin:
//
//	admitted + shed + rejected == submitted
//
// Rejected means never queued (validation, rate limit, full queue,
// shutting down); shed means queued but dropped (load shedding,
// deadline expiry, cancellation, shutdown); admitted means handed an
// executor slot. The invariant holds as a sum over per-shard terminal
// buckets.
package frontdoor

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/provenance"
)

// Class is a query's SLO class.
type Class int

const (
	// ClassLatency is the latency-sensitive class: drained first,
	// deadline-checked, its p99 is the number the front door defends.
	ClassLatency Class = iota
	// ClassThroughput is the best-effort bulk class.
	ClassThroughput
	numClasses
)

// String returns the class's label (as used in metric labels).
func (c Class) String() string {
	switch c {
	case ClassLatency:
		return "latency"
	case ClassThroughput:
		return "throughput"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Query is one unit of admission-controlled work.
type Query struct {
	// Tenant names the submitting tenant (validated by DecodeRequest).
	Tenant string
	// Class is the query's SLO class.
	Class Class
	// Deadline is the latency budget from submission (0 = none). A
	// query whose deadline passes while queued is shed.
	Deadline time.Duration
	// Ops summarizes the plan for the cost model's whole-plan
	// O-DUR/O-MEM prediction: one entry per operator, keyed by operator
	// type, scaled by the optimizer's block estimate. DecodeRequest
	// fills it; backends may also consume it directly.
	Ops []costmodel.OpWork
	// PredDur/PredMem are the cost model's whole-plan O-DUR/O-MEM
	// totals for Ops. The front door prices a query once, before its
	// first admission decision, and the price travels with it: the
	// admission features and every backend behind the door (the
	// cluster's load-aware routing) read these, not an estimator of
	// their own. Without a front door they are whatever the caller set.
	PredDur, PredMem float64
	// Payload carries backend-specific execution state (the engine
	// backend stores the *plan.Plan here).
	Payload any
}

// Outcome is a ticket's terminal bucket.
type Outcome int

const (
	// OutcomeAdmitted: the query got an executor slot (its Disposition
	// arrives once execution finishes).
	OutcomeAdmitted Outcome = iota
	// OutcomeShed: queued, then dropped.
	OutcomeShed
	// OutcomeRejected: never queued.
	OutcomeRejected
)

func (o Outcome) String() string {
	switch o {
	case OutcomeAdmitted:
		return "admitted"
	case OutcomeShed:
		return "shed"
	case OutcomeRejected:
		return "rejected"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Disposition is the final answer for one submitted query.
type Disposition struct {
	Outcome Outcome
	// Reason explains shed/reject outcomes ("rate_limit", "queue_full",
	// "deadline", "load", "cancelled", "shutdown", ...).
	Reason string
	// Wait is the time spent queued.
	Wait time.Duration
	// Latency is submit-to-completion (admitted queries only).
	Latency time.Duration
	// DeadlineMet reports whether an admitted query finished within its
	// deadline (true when it has none).
	DeadlineMet bool
	// Err is the backend's execution error (admitted queries only).
	Err error
}

// Ticket tracks one submitted query. Exactly one Disposition is
// delivered on Done.
type Ticket struct {
	Query *Query

	fd    *FrontDoor
	done  chan Disposition
	enq   time.Time
	state ticketState
	feat  lsched.AdmissionFeatures // features at decision time (learning feedback)
	// priced marks Query.PredDur/PredMem as filled for this submission:
	// the prediction depends only on the query's ops, so re-decisions of
	// a deferred ticket reuse it instead of re-walking the cost windows
	// on every admission pass. Guarded by the owner shard's lock.
	priced bool
	// provID keys this query's flight-recorder records: the front
	// door's submission sequence number, unique across tenants and
	// shards.
	provID int64
}

type ticketState int

const (
	stateQueued ticketState = iota
	stateAdmitted
	stateResolved // shed or rejected
)

// Done delivers the ticket's final disposition (buffered; never blocks
// the front door).
func (t *Ticket) Done() <-chan Disposition { return t.done }

// Cancel withdraws a still-queued query (counted as shed). Cancelling
// an admitted or already-resolved ticket is a no-op.
func (t *Ticket) Cancel() { t.fd.core.cancel(t) }

// Controller makes the admission decision for the query at the head of
// a queue. Decide runs under the deciding shard's lock and may run
// concurrently from several shards — implementations must be safe for
// concurrent use and must not block or resubmit.
type Controller interface {
	Name() string
	// Decide returns the action for the candidate query given the
	// current admission features.
	Decide(f *lsched.AdmissionFeatures, q *Query) Decision
	// Observe feeds back an admitted query's outcome (deadline met or
	// not) with the features it was admitted under. No-op for
	// non-learning controllers. Called from executor goroutines.
	Observe(f *lsched.AdmissionFeatures, q *Query, deadlineMet bool)
}

// Decision is a Controller's verdict.
type Decision int

const (
	// Admit grants the query an executor slot now.
	Admit Decision = iota
	// Defer leaves the query queued for a later pass (e.g. reserving
	// the last slots for the latency class).
	Defer
	// Shed drops the query now, before it wastes queue time or an
	// executor slot.
	Shed
)

// Backend executes admitted queries. Run is called from per-query
// goroutines and must be safe for concurrent use.
type Backend interface {
	Run(q *Query) (*Result, error)
}

// Result is what a backend reports per completed query; the per-type
// stats feed the cost model that prices future admissions.
type Result struct {
	// OpDurations/OpMemory are mean per-work-order duration and memory
	// by operator-type key (matching Query.Ops keys). Nil when the
	// backend has nothing to report.
	OpDurations map[int]float64
	OpMemory    map[int]float64
}

// Options configures a FrontDoor.
type Options struct {
	// Backend executes admitted queries (required).
	Backend Backend
	// Controller makes admission decisions; nil selects the heuristic
	// baseline.
	Controller Controller
	// MaxInFlight bounds concurrently executing queries (default 8).
	MaxInFlight int
	// QueueCap bounds each tenant's queue per SLO class (default 256);
	// submissions beyond it are rejected ("queue_full").
	QueueCap int
	// MaxTenants bounds the tenant map (default 1024); submissions from
	// further tenants are rejected ("tenant_limit").
	MaxTenants int
	// Rate and Burst configure the per-tenant token bucket
	// (queries/sec; Rate 0 disables rate limiting).
	Rate, Burst float64
	// Estimator prices incoming plans (O-DUR/O-MEM); nil creates one
	// with generic priors, fed online by backend results.
	Estimator *costmodel.Estimator
	// SweepInterval is how often each drain loop sheds expired queued
	// queries even when no completions arrive (default 25ms).
	SweepInterval time.Duration
	// Shards is the number of independent tenant shards (rounded up to
	// a power of two, default GOMAXPROCS). Each shard owns its tenants'
	// queues, buckets, deadline sweep, and drain loop; Shards 1 is the
	// fully serial door.
	Shards int
	// Metrics instruments the front door (nil disables).
	Metrics *metrics.Registry
	// Provenance, when set, flight-records every admission verdict
	// (KindAdmit, keyed by submission sequence) and joins it to the
	// query's outcome at completion or shed time.
	Provenance *provenance.Recorder
	// SLO, when set, receives one deadline-met observation per
	// terminal query outcome, keyed by (tenant, class).
	SLO *provenance.Tracker
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Controller == nil {
		out.Controller = NewHeuristic()
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = 8
	}
	if out.QueueCap <= 0 {
		out.QueueCap = 256
	}
	if out.MaxTenants <= 0 {
		out.MaxTenants = 1024
	}
	if out.Estimator == nil {
		out.Estimator = costmodel.NewEstimator(32, 0.01, 1)
	}
	if out.SweepInterval <= 0 {
		out.SweepInterval = 25 * time.Millisecond
	}
	if out.Shards <= 0 {
		out.Shards = runtime.GOMAXPROCS(0)
	}
	out.Shards = ceilPow2(out.Shards)
	if out.Shards > maxShards {
		out.Shards = maxShards
	}
	return out
}

// maxShards caps the shard count: beyond this, per-shard drain
// goroutines and sweep tickers cost more than the contention they
// remove.
const maxShards = 256

// ceilPow2 rounds n up to the next power of two (n >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FrontDoor is the admission-controlled query ingress. Build with New,
// submit with Submit (or via the HTTP ingress), stop with Shutdown.
type FrontDoor struct {
	opts Options
	ins  *instruments
	core *shardedCore
}

// tenant is one tenant's queues, token bucket, and cached instruments.
// A tenant belongs to exactly one shard; all fields are guarded by its
// owner's lock.
type tenant struct {
	name     string
	queues   [numClasses][]*Ticket
	bucket   bucket
	inflight int

	submitted, admitted, shed, rejected int64

	ins tenantInstruments
}

// New builds and starts a front door.
func New(opts Options) (*FrontDoor, error) {
	if opts.Backend == nil {
		return nil, fmt.Errorf("frontdoor: Options.Backend is required")
	}
	o := opts.withDefaults()
	fd := &FrontDoor{opts: o, ins: newInstruments(o.Metrics)}
	fd.core = newShardedCore(fd)
	return fd, nil
}

// Estimator returns the cost model pricing admissions.
func (fd *FrontDoor) Estimator() *costmodel.Estimator { return fd.opts.Estimator }

// Submit validates, rate-limits, and enqueues a query. The returned
// ticket's Done channel always delivers exactly one Disposition;
// rejected submissions also return a non-nil error.
func (fd *FrontDoor) Submit(q *Query) (*Ticket, error) {
	t := &Ticket{Query: q, fd: fd, done: make(chan Disposition, 1), enq: time.Now()}
	return fd.core.submit(t)
}

// Draining reports whether the front door has begun shutdown (new
// submissions are rejected) — the /healthz readiness signal.
func (fd *FrontDoor) Draining() bool { return fd.core.draining() }

// Stats is a conservation-accounting snapshot. The terminal counts are
// sums over per-shard buckets; after a quiesce (shutdown, or all
// tickets resolved) they are exact.
type Stats struct {
	Submitted, Admitted, Shed, Rejected int64
	Queued, InFlight                    int
}

// Stats returns the current terminal-bucket counts.
func (fd *FrontDoor) Stats() Stats { return fd.core.stats() }

// Status snapshots the front door for the obs /frontdoor endpoint
// (wire it as obs.Options.FrontDoor = fd.Status).
func (fd *FrontDoor) Status() any { return fd.core.status() }

// Shutdown stops the front door: new submissions are rejected, every
// queued query is shed ("shutdown"), and in-flight queries are drained
// (bounded by drainTimeout; <= 0 waits indefinitely). It reports
// whether the drain completed.
func (fd *FrontDoor) Shutdown(drainTimeout time.Duration) bool {
	return fd.core.shutdown(drainTimeout)
}

// loadSnapshot is the load view admission features are computed from:
// whole-door occupancy at (approximately) decision time, assembled
// from the core's atomics (shardedCore.snapshot).
type loadSnapshot struct {
	queued    int     // queued queries, all classes
	queuedLat int     // queued latency-class queries
	inflight  int     // executing queries
	avgDur    float64 // EWMA of admitted-query service time (seconds)
}

// fillFeatures computes the admission features for t given the load
// view. The caller holds the lock guarding tn.
func fillFeatures(f *lsched.AdmissionFeatures, o *Options, tn *tenant, t *Ticket, now time.Time, v loadSnapshot) {
	q := t.Query
	if !t.priced {
		q.PredDur, q.PredMem = o.Estimator.PredictTotals(q.Ops)
		t.priced = true
	}
	dur, mem := q.PredDur, q.PredMem
	// Predicted wait: how long until this query would actually start,
	// with every slot busy and the queue ahead of it to drain first.
	wait := 0.0
	if o.MaxInFlight > 0 {
		// The latency class drains first, so only same-class occupancy
		// is ahead of a latency query; throughput queries wait behind
		// everything.
		ahead := float64(v.queuedLat)
		if q.Class == ClassThroughput {
			ahead = float64(v.queued)
		}
		backlog := float64(v.inflight) + ahead/2
		wait = backlog * v.avgDur / float64(o.MaxInFlight)
	}
	headroom := 0.0
	if q.Deadline > 0 {
		// Whatever budget remains after the queue time already burned,
		// the predicted residual wait, and the predicted execution.
		remaining := q.Deadline.Seconds() - now.Sub(t.enq).Seconds()
		headroom = remaining - wait - dur
	}
	share := 0.0
	if v.inflight > 0 {
		share = float64(tn.inflight) / float64(v.inflight)
	}
	*f = lsched.AdmissionFeatures{
		TenantQueueDepth: float64(len(tn.queues[ClassLatency]) + len(tn.queues[ClassThroughput])),
		TotalQueueDepth:  float64(v.queued),
		InFlight:         float64(v.inflight),
		FreeSlots:        float64(o.MaxInFlight - v.inflight),
		TenantShare:      share,
		PredDur:          dur,
		PredMem:          mem,
		PredWait:         wait,
		DeadlineHeadroom: headroom,
	}
	if q.Class == ClassLatency {
		f.LatencySensitive = 1
	}
}

// admissionScorer is the optional Controller face the flight recorder
// uses: the learned controller exposes its admit probability so records
// carry the exact score the verdict came from.
type admissionScorer interface {
	AdmissionScore(f *lsched.AdmissionFeatures) float64
}

// policyVersioned is the optional Controller face naming the
// policy-store version behind the admission head.
type policyVersioned interface {
	PolicyVersion() int
}

// recordAdmission flight-records one terminal admission verdict. The
// caller owns featBuf/scoreBuf (per-shard scratch, guarded by the
// shard's lock) so the hot path stays allocation-free; the
// (possibly regrown) feature buffer is returned for reuse.
func recordAdmission(o *Options, t *Ticket, dec Decision, featBuf []float64, scoreBuf *[1]float64) []float64 {
	if o.Provenance == nil {
		return featBuf
	}
	score := 1.0
	if sc, ok := o.Controller.(admissionScorer); ok {
		score = sc.AdmissionScore(&t.feat)
	}
	version := 0
	if pv, ok := o.Controller.(policyVersioned); ok {
		version = pv.PolicyVersion()
	}
	featBuf = t.feat.AppendVector(featBuf[:0])
	scoreBuf[0] = score
	o.Provenance.Record(provenance.KindAdmit, t.provID, t.Query.Tenant,
		version, featBuf, scoreBuf[:], int32(dec), 0, int32(Admit))
	return featBuf
}

// joinAdmitted joins an admitted query's flight-recorder entry to its
// outcome, including the cost model's whole-plan prediction errors
// (actual minus predicted) that ROADMAP item 4's cost model v2 trains
// on. Actual memory is reconstructed from the backend's per-type means
// weighted by the plan's work-order units.
func joinAdmitted(o *Options, t *Ticket, res *Result, latency, dur time.Duration, met bool) {
	if o.Provenance == nil {
		return
	}
	out := provenance.Outcome{
		LatencySecs: latency.Seconds(),
		DeadlineMet: met,
		DurPredErr:  dur.Seconds() - t.feat.PredDur,
	}
	if res != nil && len(res.OpMemory) > 0 {
		actualMem := 0.0
		for _, ow := range t.Query.Ops {
			u := ow.Units
			if u < 1 {
				u = 1
			}
			actualMem += res.OpMemory[ow.Key] * float64(u)
		}
		out.MemPredErr = actualMem - t.feat.PredMem
	}
	o.Provenance.JoinOutcome(provenance.KindAdmit, t.provID, out)
}
