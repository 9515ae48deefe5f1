package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/frontdoor"
)

// Span layers, named after what the wrapper at that boundary times.
const (
	layerClient  = iota // client round trip, sent (or due) to reply read
	layerIngress        // http.Handler around fd.Handler()
	layerBackend        // frontdoor.Backend above the PlanPool / Coordinator
	layerEngine         // frontdoor.Backend around EngineBackend
	layerRPC            // cluster.NodeClient.Submit around each RPCClient
	layerNode           // frontdoor.Backend around each node's backend
	layerSched          // engine.Scheduler.OnEvent inside the HotAgent's slot
	numLayers
)

var layerNames = [numLayers]string{"client", "ingress", "backend", "engine", "rpc", "node", "sched"}

// seqHeader carries the client's request sequence number to the
// ingress wrapper: the one identity visible across the HTTP boundary.
const seqHeader = "X-Bench-Seq"

type span struct {
	layer  uint8
	seq    int64 // request sequence (client, ingress), query number (backend layers), query ID (sched)
	start  int64 // ns since the tracer's origin
	end    int64
	parent int64 // index of the span that caused this one where identity is visible from outside, else -1
}

// tracer is the benchmark's own span recorder: wrappers at the stack's
// public interfaces reserve a slot in a preallocated slice, so recording
// costs one atomic add and two clock reads. It records only while on,
// which the workload flips after warm-up has drained.
type tracer struct {
	origin   time.Time
	spans    []span
	n        atomic.Int64
	on       atomic.Bool
	dropped  atomic.Int64
	querySeq atomic.Int64
	// open maps a *frontdoor.Query to the index of its innermost open
	// backend span, so a wrapper further down the same query can name
	// its parent.
	open sync.Map
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index, or -1 when the tracer is
// off or full.
func (t *tracer) begin(layer uint8, seq, parent int64) int64 {
	if !t.on.Load() {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{layer: layer, seq: seq, start: t.now(), parent: parent}
	return i
}

func (t *tracer) end(i int64) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// record stores an already measured span (client round trips, whose
// start may be a due time in the past).
func (t *tracer) record(layer uint8, seq, start, end int64) {
	if i := t.begin(layer, seq, -1); i >= 0 {
		t.spans[i].start, t.spans[i].end = start, end
	}
}

// done returns the closed spans recorded so far.
func (t *tracer) done() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// layerTotals sums span time and counts spans per layer.
func layerTotals(spans []span) (sum [numLayers]float64, count [numLayers]int) {
	for _, s := range spans {
		sum[s.layer] += float64(s.end-s.start) / 1e6
		count[s.layer]++
	}
	return sum, count
}

// writeTrace dumps the spans as a JSON array to out/<name>.trace.json,
// resolving each ingress span's parent to the client span that carries
// the same sequence number.
func writeTrace(name string, spans []span) error {
	type jsonSpan struct {
		Layer   string `json:"layer"`
		Seq     int64  `json:"seq"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  int64  `json:"parent"`
	}
	clientBySeq := make(map[int64]int64)
	for i, s := range spans {
		if s.layer == layerClient {
			clientBySeq[s.seq] = int64(i)
		}
	}
	out := make([]jsonSpan, len(spans))
	for i, s := range spans {
		parent := s.parent
		if s.layer == layerIngress {
			if p, ok := clientBySeq[s.seq]; ok {
				parent = p
			}
		}
		out[i] = jsonSpan{layerNames[s.layer], s.seq, s.start, s.end, parent}
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", name+".trace.json"), data, 0o644)
}

// tracedHandler times the HTTP ingress from the first handler
// instruction to the reply being written.
type tracedHandler struct {
	t    *tracer
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
	if err != nil {
		seq = -1
	}
	i := h.t.begin(layerIngress, seq, -1)
	h.next.ServeHTTP(w, r)
	h.t.end(i)
}

// tracedBackend times one frontdoor.Backend. Wrappers stacked on the
// same *frontdoor.Query find each other through tracer.open.
type tracedBackend struct {
	t     *tracer
	layer uint8
	next  frontdoor.Backend
}

func (b tracedBackend) Run(q *frontdoor.Query) (*frontdoor.Result, error) {
	parent, seq := int64(-1), int64(-1)
	outer, nested := b.t.open.Load(q)
	if nested {
		parent = outer.(int64)
		if parent >= 0 {
			seq = b.t.spans[parent].seq
		}
	} else {
		seq = b.t.querySeq.Add(1)
	}
	i := b.t.begin(b.layer, seq, parent)
	b.t.open.Store(q, i)
	res, err := b.next.Run(q)
	b.t.end(i)
	if nested {
		b.t.open.Store(q, outer)
	} else {
		b.t.open.Delete(q)
	}
	return res, err
}

// tracedNodeClient times the coordinator's Submit calls to one node;
// the other NodeClient methods pass through the embedded client.
type tracedNodeClient struct {
	cluster.NodeClient
	t   *tracer
	seq atomic.Int64
}

func (c *tracedNodeClient) Submit(req *cluster.SubmitRequest) (*cluster.SubmitReply, error) {
	i := c.t.begin(layerRPC, c.seq.Add(1), -1)
	reply, err := c.NodeClient.Submit(req)
	c.t.end(i)
	return reply, err
}

// tracedScheduler times every OnEvent of the policy it wraps and
// forwards query-lifecycle callbacks, so the wrapped agent still joins
// its provenance records.
type tracedScheduler struct {
	t     *tracer
	inner engine.Scheduler
}

func (s tracedScheduler) Name() string { return s.inner.Name() }

func (s tracedScheduler) OnEvent(st *engine.State, ev engine.Event) []engine.Decision {
	i := s.t.begin(layerSched, int64(ev.QueryID), -1)
	d := s.inner.OnEvent(st, ev)
	s.t.end(i)
	return d
}

func (s tracedScheduler) QueryCompleted(queryID int, arrival, completion float64) {
	if o, ok := s.inner.(engine.QueryObserver); ok {
		o.QueryCompleted(queryID, arrival, completion)
	}
}
