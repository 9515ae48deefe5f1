// Package provenance is the decision flight recorder: it captures every
// learned decision the system takes — the LSched scheduling action and
// the front door's admission verdict — together with the exact
// normalized feature vector the policy saw, the candidate scores it
// produced, the policy version that produced them, and the heuristic
// baseline's counterfactual choice. Each record is later joined to its
// outcome (latency, deadline met, shed, cost-model prediction error) at
// query completion, turning the ring into replayable training traces
// and the substrate for two analysis surfaces:
//
//   - drift.go: per-feature PSI drift detection of the live feature
//     distribution against a training-time reference snapshot, and
//   - slo.go: per-tenant/class multi-window error-budget burn rates.
//
// The recorder is lock-light and allocation-aware: one mutex with short
// critical sections, records stored in a bounded ring whose per-slot
// feature/score slabs are reused across wraps, so recording on the
// agent's serving fast path costs no steady-state allocations. Records
// spill periodically to an attached sink as CRC-framed binary batches —
// the same verify-before-trust discipline as policystore checkpoints —
// and reload bit-identical (see spill.go), which is what ROADMAP item 1
// (offline admission training from recorded traces) consumes.
package provenance

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Kind labels which learned policy took a decision.
type Kind uint8

const (
	// KindSchedule is an LSched scheduling action (root activation +
	// pipeline depth), keyed by engine query ID.
	KindSchedule Kind = iota
	// KindAdmit is a front-door admission verdict (admit/shed), keyed
	// by the front door's submission sequence number.
	KindAdmit
	numKinds
)

// String names the kind (as used in metric labels and JSON).
func (k Kind) String() string {
	switch k {
	case KindSchedule:
		return "schedule"
	case KindAdmit:
		return "admit"
	}
	return "kind(?)"
}

// Outcome is the joined result of a recorded decision, filled in at
// query completion (or at shed time) via JoinOutcome.
type Outcome struct {
	// Joined reports whether the decision's outcome ever arrived.
	Joined bool `json:"joined"`
	// LatencySecs is submit-to-completion (admitted/completed queries).
	LatencySecs float64 `json:"latency_secs,omitempty"`
	// DeadlineMet reports whether the query met its deadline (true when
	// it had none and completed).
	DeadlineMet bool `json:"deadline_met,omitempty"`
	// Shed marks a query dropped after the decision.
	Shed bool `json:"shed,omitempty"`
	// Rejected marks a query that never ran.
	Rejected bool `json:"rejected,omitempty"`
	// DurPredErr is actual minus predicted whole-plan duration at
	// decision time (the O-DUR prediction error the cost model carried).
	DurPredErr float64 `json:"dur_pred_err,omitempty"`
	// MemPredErr is the O-MEM analogue.
	MemPredErr float64 `json:"mem_pred_err,omitempty"`
}

// Record is one captured decision. Slices alias recorder-owned slabs
// while the record sits in the ring; accessor methods (Recent, ByQuery)
// and the spill reader return deep copies.
type Record struct {
	// Seq is the recorder-assigned sequence number (starts at 1).
	Seq uint64 `json:"seq"`
	// Kind labels the deciding policy.
	Kind Kind `json:"kind"`
	// QueryID keys the outcome join: the engine query ID for schedule
	// decisions (-1 when the action was "stop"), the front-door
	// submission sequence for admissions.
	QueryID int64 `json:"query_id"`
	// Tenant is the submitting tenant (admissions only).
	Tenant string `json:"tenant,omitempty"`
	// NodeID names the cluster node whose policy took the decision
	// (empty on single-node deployments). It is stamped per recorder
	// (SetNodeID), so traces spilled by different nodes stay
	// attributable after they are merged.
	NodeID string `json:"node_id,omitempty"`
	// PolicyVersion is the policy-store version of the deciding policy
	// (0 = not from the store), stamped by serving.HotAgent on swap so
	// a bad promotion is attributable record by record.
	PolicyVersion int32 `json:"policy_version"`
	// UnixNanos is the decision wall-clock time.
	UnixNanos int64 `json:"unix_nanos"`
	// Features is the exact normalized feature vector the policy scored
	// (the agent's flat feature arena; the admission head's input).
	Features []float64 `json:"features"`
	// Scores are the candidate scores/probabilities the policy produced
	// (root logits including the trailing stop logit; the admission
	// head's admit probability).
	Scores []float64 `json:"scores"`
	// Action is the chosen action: the picked candidate index for
	// schedule decisions (-1 = stop), the frontdoor.Decision value for
	// admissions.
	Action int32 `json:"action"`
	// ActionArg carries the action's argument (pipeline depth).
	ActionArg int32 `json:"action_arg"`
	// Heuristic is the non-learned baseline's counterfactual choice
	// under the same candidates: the critical-path pick for schedule
	// decisions, the admit-everything verdict for admissions.
	Heuristic int32 `json:"heuristic"`
	// Outcome is filled by JoinOutcome.
	Outcome Outcome `json:"outcome"`

	// prevSeq chains earlier still-unjoined records with the same
	// (Kind, QueryID), so one join reaches every decision taken for the
	// query; 0 terminates the chain.
	prevSeq uint64
}

type openKey struct {
	kind Kind
	id   int64
}

// Options configures a Recorder.
type Options struct {
	// Capacity bounds the ring (default 4096 records).
	Capacity int
	// Now supplies decision timestamps in Unix nanoseconds; nil uses
	// time.Now. Injectable for deterministic tests and golden files.
	Now func() int64
}

// Recorder is the bounded decision ring. The zero value is not usable;
// build with NewRecorder. A nil *Recorder is a valid "provenance
// disabled" handle: every method no-ops, so call sites record
// unconditionally like metrics instruments.
type Recorder struct {
	mu     sync.Mutex
	ring   []Record
	seq    uint64 // last assigned sequence; slot index is seq % cap
	open   map[openKey]uint64
	now    func() int64
	nodeID string

	names [numKinds][]string
	drift [numKinds]*DriftDetector

	sink       *sinkState
	joinedN    uint64
	mRecords   [numKinds]*metrics.Counter
	mJoins     *metrics.Counter
	mSpilled   *metrics.Counter
	mOpen      *metrics.Gauge
	mSpillErrs *metrics.Counter
}

// NewRecorder builds a recorder.
func NewRecorder(opts Options) *Recorder {
	if opts.Capacity <= 0 {
		opts.Capacity = 4096
	}
	if opts.Now == nil {
		opts.Now = func() int64 { return time.Now().UnixNano() }
	}
	return &Recorder{
		ring: make([]Record, opts.Capacity),
		open: make(map[openKey]uint64),
		now:  opts.Now,
	}
}

// Instrument attaches recorder counters to a registry (nil no-ops).
func (r *Recorder) Instrument(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	for k := Kind(0); k < numKinds; k++ {
		r.mRecords[k] = reg.Counter(metrics.LabeledName("provenance_records", "kind", k.String()))
	}
	r.mJoins = reg.Counter("provenance_joins")
	r.mSpilled = reg.Counter("provenance_spilled_records")
	r.mSpillErrs = reg.Counter("provenance_spill_errors")
	r.mOpen = reg.Gauge("provenance_open_keys")
}

// SetNodeID stamps every subsequently recorded decision with the
// cluster node identity, so merged multi-node traces stay attributable
// record by record (lsched-policyctl explain prints it). Set it once at
// process start, before traffic.
func (r *Recorder) SetNodeID(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nodeID = id
	r.mu.Unlock()
}

// SetFeatureNames labels one kind's feature-vector positions for the
// explain surfaces (/decisions, lsched-policyctl explain). Names are
// advisory: records whose vector length differs render unnamed.
func (r *Recorder) SetFeatureNames(kind Kind, names []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.names[kind] = append([]string(nil), names...)
	r.mu.Unlock()
}

// FeatureNames returns the names registered for a kind (nil when none).
func (r *Recorder) FeatureNames(kind Kind) []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names[kind]...)
}

// SetDrift attaches a drift detector fed every recorded feature vector
// of the given kind (vectors whose length does not match the detector's
// reference are skipped by the detector).
func (r *Recorder) SetDrift(kind Kind, d *DriftDetector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.drift[kind] = d
	r.mu.Unlock()
}

// Drift returns the detector attached for a kind (nil when none).
func (r *Recorder) Drift(kind Kind) *DriftDetector {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drift[kind]
}

// Record captures one decision into the ring, copying features and
// scores into the slot's reused slabs (no steady-state allocation).
// It returns the record's sequence number (0 on a nil recorder).
// queryID < 0 records an unjoinable decision (e.g. a stop action).
func (r *Recorder) Record(kind Kind, queryID int64, tenant string, policyVersion int, features, scores []float64, action, actionArg, heuristic int32) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.seq++
	seq := r.seq
	slot := &r.ring[seq%uint64(len(r.ring))]
	// The slot being overwritten may still head an open chain; its map
	// entry is invalidated lazily (Seq validation at join time) and
	// swept when the map outgrows the ring.
	slot.Seq = seq
	slot.Kind = kind
	slot.QueryID = queryID
	slot.Tenant = tenant
	slot.NodeID = r.nodeID
	slot.PolicyVersion = int32(policyVersion)
	slot.UnixNanos = r.now()
	slot.Features = append(slot.Features[:0], features...)
	slot.Scores = append(slot.Scores[:0], scores...)
	slot.Action = action
	slot.ActionArg = actionArg
	slot.Heuristic = heuristic
	slot.Outcome = Outcome{}
	slot.prevSeq = 0
	if queryID >= 0 {
		key := openKey{kind: kind, id: queryID}
		slot.prevSeq = r.open[key]
		r.open[key] = seq
		if len(r.open) > len(r.ring) {
			r.sweepOpenLocked()
		}
	}
	det := r.drift[kind]
	var spillErr error
	if r.sink != nil && seq-r.sink.through >= uint64(r.sink.every) {
		spillErr = r.flushLocked()
	}
	r.mu.Unlock()

	r.mRecords[kind].Inc()
	if r.mOpen != nil {
		r.mOpen.Set(float64(r.openKeysApprox()))
	}
	if spillErr != nil {
		r.mSpillErrs.Inc()
	}
	if det != nil {
		det.Observe(features)
	}
	return seq
}

// sweepOpenLocked drops open-chain heads whose ring slot was already
// overwritten, bounding the map at ring size. Caller holds r.mu.
func (r *Recorder) sweepOpenLocked() {
	for key, seq := range r.open {
		slot := &r.ring[seq%uint64(len(r.ring))]
		if slot.Seq != seq || slot.Kind != key.kind || slot.QueryID != key.id {
			delete(r.open, key)
		}
	}
}

func (r *Recorder) openKeysApprox() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// JoinOutcome attaches an outcome to every still-ringed record of the
// (kind, queryID) chain and closes it. Unknown keys no-op, so callers
// join unconditionally at completion/shed time.
func (r *Recorder) JoinOutcome(kind Kind, queryID int64, o Outcome) {
	if r == nil || queryID < 0 {
		return
	}
	o.Joined = true
	joined := 0
	key := openKey{kind: kind, id: queryID}
	r.mu.Lock()
	seq := r.open[key]
	for seq != 0 {
		slot := &r.ring[seq%uint64(len(r.ring))]
		if slot.Seq != seq || slot.Kind != kind || slot.QueryID != queryID {
			break // evicted by a ring wrap; older chain entries are gone too
		}
		slot.Outcome = o
		joined++
		seq = slot.prevSeq
	}
	delete(r.open, key)
	r.joinedN += uint64(joined)
	r.mu.Unlock()
	if joined > 0 {
		r.mJoins.Add(int64(joined))
	}
}

// cloneRecord deep-copies a ring slot.
func cloneRecord(src *Record) Record {
	out := *src
	out.Features = append([]float64(nil), src.Features...)
	out.Scores = append([]float64(nil), src.Scores...)
	out.prevSeq = 0
	return out
}

// Recent returns deep copies of the newest n records, oldest first.
func (r *Recorder) Recent(n int) []Record {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > len(r.ring) {
		n = len(r.ring) // n can come straight from a query string
	}
	lo := uint64(1)
	if r.seq > uint64(len(r.ring)) {
		lo = r.seq - uint64(len(r.ring)) + 1
	}
	if r.seq-lo+1 > uint64(n) {
		lo = r.seq - uint64(n) + 1
	}
	out := make([]Record, 0, n)
	for s := lo; s <= r.seq; s++ {
		slot := &r.ring[s%uint64(len(r.ring))]
		if slot.Seq != s {
			continue
		}
		out = append(out, cloneRecord(slot))
	}
	return out
}

// ByQuery returns deep copies of every ringed record for (kind,
// queryID), oldest first — the explain view's query filter.
func (r *Recorder) ByQuery(kind Kind, queryID int64) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Record
	lo := uint64(1)
	if r.seq > uint64(len(r.ring)) {
		lo = r.seq - uint64(len(r.ring)) + 1
	}
	for s := lo; s <= r.seq; s++ {
		slot := &r.ring[s%uint64(len(r.ring))]
		if slot.Seq == s && slot.Kind == kind && slot.QueryID == queryID {
			out = append(out, cloneRecord(slot))
		}
	}
	return out
}

// Stats is a recorder accounting snapshot.
type Stats struct {
	// Recorded counts decisions ever recorded (== last sequence).
	Recorded uint64 `json:"recorded"`
	// Joined counts records that received their outcome.
	Joined uint64 `json:"joined"`
	// Spilled counts records written to the sink.
	Spilled uint64 `json:"spilled"`
	// OpenKeys is the number of decision chains awaiting an outcome.
	OpenKeys int `json:"open_keys"`
}

// Stats returns the recorder's counters (zero value on nil).
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{Recorded: r.seq, Joined: r.joinedN, OpenKeys: len(r.open)}
	if r.sink != nil {
		st.Spilled = r.sink.through
	}
	return st
}
