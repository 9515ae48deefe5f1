package frontdoor

import "repro/internal/lsched"

// Learned is the scheduler-driven admission controller: the decision is
// made by the LSched agent's admission head, scoring queue pressure,
// per-tenant in-flight share, and the cost model's O-DUR/O-MEM
// whole-plan predictions. Three behaviors separate it from the
// tail-drop baseline:
//
//  1. Hopeless-query shedding: a deadline-carrying query whose
//     remaining budget cannot cover its predicted wait plus predicted
//     execution is shed at the queue head — before it burns an
//     executor slot producing an answer nobody can use.
//  2. Score-based load shedding: the learned admit probability (which
//     online updates push toward states whose admissions met their
//     deadlines) sheds below ShedBelow.
//  3. Throughput-class reservation: when the executor is nearly
//     saturated and the head scores only marginally, throughput-class
//     work is deferred, keeping the last slots available for the
//     latency class.
type Learned struct {
	head *lsched.AdmissionHead
	// ShedBelow sheds queries scoring under it (default 0.2).
	ShedBelow float64
	// DeferBelow defers throughput-class queries scoring under it when
	// ReserveSlots or fewer slots are free (default 0.55).
	DeferBelow float64
	// ReserveSlots is the free-slot threshold for the throughput
	// deferral (default 1).
	ReserveSlots float64
	// Train enables online updates from observed outcomes (default on
	// via NewLearned).
	Train bool
	// Version is the policy-store version the admission head was loaded
	// from (0 = not from the store); flight-recorder records carry it.
	Version int
}

// NewLearned wraps an agent's admission head in a controller with
// online training enabled.
func NewLearned(head *lsched.AdmissionHead) *Learned {
	return &Learned{head: head, ShedBelow: 0.2, DeferBelow: 0.55, ReserveSlots: 1, Train: true}
}

// Name implements Controller.
func (l *Learned) Name() string { return "learned" }

// AdmissionScore exposes the head's admit probability for the given
// features — the score the flight recorder stores with each verdict.
func (l *Learned) AdmissionScore(f *lsched.AdmissionFeatures) float64 { return l.head.Score(f) }

// PolicyVersion names the policy-store version behind the head.
func (l *Learned) PolicyVersion() int { return l.Version }

// SetPolicyVersion updates the stamped version (serving hot-swaps).
func (l *Learned) SetPolicyVersion(v int) { l.Version = v }

// Decide implements Controller.
func (l *Learned) Decide(f *lsched.AdmissionFeatures, q *Query) Decision {
	// Hopeless check: Decide runs on the queue head with a slot free,
	// so the query's actual residual wait is ~zero — what matters is
	// whether the remaining budget covers the predicted execution.
	// DeadlineHeadroom bakes in PredWait (the featurization prices the
	// backlog), so add it back: headroom + wait == remaining - dur.
	if q.Deadline > 0 && f.DeadlineHeadroom+f.PredWait < 0 {
		return Shed
	}
	s := l.head.Score(f)
	if s < l.ShedBelow {
		return Shed
	}
	if q.Class == ClassThroughput && s < l.DeferBelow && f.FreeSlots <= l.ReserveSlots {
		return Defer
	}
	return Admit
}

// Observe implements Controller: one online logistic step per admitted
// query — label 1 when the admission met its deadline (or had none and
// completed), 0 when it was wasted work.
func (l *Learned) Observe(f *lsched.AdmissionFeatures, q *Query, deadlineMet bool) {
	if !l.Train {
		return
	}
	label := 0.0
	if deadlineMet {
		label = 1
	}
	l.head.Update(f, label)
}
