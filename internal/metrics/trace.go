package metrics

import (
	"fmt"
	"sync"
)

// EventKind enumerates the typed trace events the scheduler substrate
// emits. They mirror the paper's execution model: work-order dispatch
// and completion (§5.1), query admission and finish, scheduler
// decisions (§5.3), trigger firings (§5.2 scheduling events), and
// cost-model updates (footnote 1 / §4.1 dynamic features).
type EventKind int

const (
	// EvDispatch: a work order was handed to a worker thread.
	EvDispatch EventKind = iota
	// EvComplete: a work order finished; Value is its duration.
	EvComplete
	// EvQueryAdmit: a query entered the system.
	EvQueryAdmit
	// EvQueryFinish: a query's sink finished; Value is its latency.
	EvQueryFinish
	// EvDecision: a scheduler decision activated an execution root;
	// Value is the pipeline depth.
	EvDecision
	// EvTrigger: a scheduling event fired the scheduler; Label names
	// the engine event kind.
	EvTrigger
	// EvCostUpdate: a completion was folded into the cost estimator;
	// Value is the signed duration prediction error.
	EvCostUpdate
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"dispatch", "complete", "query_admit", "query_finish",
	"decision", "trigger", "cost_update",
}

// String names the event kind.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one typed trace record. Time is engine time — virtual
// seconds in the simulator, wall seconds in the live engine — so
// identical simulator runs produce identical traces.
type Event struct {
	// Seq is the record's global sequence number, assigned at Record.
	Seq uint64
	// Kind types the event.
	Kind EventKind
	// Time is the engine time of the event.
	Time float64
	// Query is the subject query ID (-1 when not query-scoped).
	Query int
	// Op is the subject operator ID (-1 when not operator-scoped).
	Op int
	// Thread is the worker thread ID (-1 when not thread-scoped).
	Thread int
	// Value carries the kind-specific measurement (duration, error,
	// pipeline depth).
	Value float64
	// Label carries kind-specific context (operator type, trigger name,
	// scheduler name).
	Label string
}

// Tracer is a bounded ring buffer of trace events. Recording is
// mutex-guarded (one short critical section per event); when the buffer
// fills, new events overwrite the oldest. A nil *Tracer is a valid
// "tracing disabled" handle: Record no-ops and Events returns nil.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
}

// DefaultTraceCapacity is the ring size used when none is given.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer retaining the last capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Record appends one event, assigning its sequence number. No-op on a
// nil receiver.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.Seq = t.seq
	t.seq++
	if !t.full {
		t.buf = append(t.buf, e)
		if len(t.buf) == cap(t.buf) {
			t.full = true
		}
	} else {
		t.buf[t.next] = e
		t.next = (t.next + 1) % len(t.buf)
	}
	t.mu.Unlock()
}

// Events returns the retained events oldest-first. Nil on a nil
// receiver.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Total returns how many events were ever recorded (0 on nil), which
// exceeds len(Events()) once the ring has wrapped.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
