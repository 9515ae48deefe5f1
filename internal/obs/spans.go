package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/metrics"
)

// This file renders the trace ring in the Chrome trace-event format,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. It is the
// ring's only rendering, so every event kind appears, with the kind's
// name as the record's category. Two process tracks are emitted:
//
//   - pid 1 "queries": one complete span per finished query (admit →
//     finish, reconstructed from the query_finish latency so it works
//     even when the ring dropped the admit event); instants for
//     scheduler decisions, scheduling triggers (§5.2; process-wide when
//     not query-scoped) and queries still running at export time; and
//     a counter track for cost-model prediction errors (cost_update).
//   - pid 2 "workers": one complete span per executed work order on its
//     worker-thread track (reconstructed from the complete event's
//     duration, which equals dispatch → complete), and an instant for
//     each dispatch whose completion is not in the window.
//
// otherData carries how many events the ring ever recorded, so a
// wrapped ring shows. Timestamps are engine time converted to
// microseconds — virtual time for Sim runs, wall time for Live runs —
// so the same exporter serves both engines and identical Sim runs
// export identical bytes.

// Chrome trace-event pids for the two tracks.
const (
	pidQueries = 1
	pidWorkers = 2
)

// ChromeEvent is one record of the Chrome trace-event format ("X" =
// complete span, "i" = instant, "C" = counter, "M" = metadata).
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object flavour of the trace-event format.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

const secToMicros = 1e6

// BuildChromeTrace folds the retained events of a ring that recorded
// total events in all into the two-track model.
func BuildChromeTrace(events []metrics.Event, total uint64) *ChromeTrace {
	tr := &ChromeTrace{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"trace_total": total, "trace_retained": len(events)},
	}
	meta := func(name string, pid, tid int, args map[string]any) {
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args,
		})
	}
	meta("process_name", pidQueries, 0, map[string]any{"name": "queries"})
	meta("process_name", pidWorkers, 0, map[string]any{"name": "workers"})

	type queryInfo struct {
		name     string
		admit    float64
		finished bool
	}
	queries := map[int]*queryInfo{}
	q := func(id int) *queryInfo {
		info, ok := queries[id]
		if !ok {
			info = &queryInfo{admit: -1}
			queries[id] = info
		}
		return info
	}
	threads := map[int]bool{}
	// A work order is in flight from its dispatch until the first
	// later complete of the same (query, op, thread).
	type workOrder struct{ query, op, thread int }
	dispatched := map[workOrder][]int{}
	completed := make([]bool, len(events))

	var spans []ChromeEvent
	for i, ev := range events {
		cat := ev.Kind.String()
		switch ev.Kind {
		case metrics.EvQueryAdmit:
			info := q(ev.Query)
			info.admit = ev.Time
			if info.name == "" {
				info.name = ev.Label
			}
		case metrics.EvQueryFinish:
			info := q(ev.Query)
			info.finished = true
			if info.name == "" {
				info.name = ev.Label
			}
			start := ev.Time - ev.Value
			if start < 0 {
				start = 0
			}
			spans = append(spans, ChromeEvent{
				Name: spanName(ev.Label, ev.Query), Cat: cat, Ph: "X",
				Ts: start * secToMicros, Dur: ev.Value * secToMicros,
				Pid: pidQueries, Tid: ev.Query,
				Args: map[string]any{"latency": ev.Value},
			})
		case metrics.EvDecision:
			spans = append(spans, ChromeEvent{
				Name: "decision " + ev.Label, Cat: cat, Ph: "i", S: "t",
				Ts: ev.Time * secToMicros, Pid: pidQueries, Tid: ev.Query,
				Args: map[string]any{"root_op": ev.Op, "pipeline_depth": ev.Value},
			})
		case metrics.EvTrigger:
			mark := ChromeEvent{
				Name: "trigger " + ev.Label, Cat: cat, Ph: "i", S: "p",
				Ts: ev.Time * secToMicros, Pid: pidQueries,
				Args: map[string]any{"op": ev.Op},
			}
			if ev.Query >= 0 {
				q(ev.Query)
				mark.S, mark.Tid = "t", ev.Query
			}
			spans = append(spans, mark)
		case metrics.EvCostUpdate:
			spans = append(spans, ChromeEvent{
				Name: cat, Cat: cat, Ph: "C", Ts: ev.Time * secToMicros, Pid: pidQueries,
				Args: map[string]any{cat: ev.Value},
			})
		case metrics.EvDispatch:
			k := workOrder{ev.Query, ev.Op, ev.Thread}
			dispatched[k] = append(dispatched[k], i)
		case metrics.EvComplete:
			if k := (workOrder{ev.Query, ev.Op, ev.Thread}); len(dispatched[k]) > 0 {
				completed[dispatched[k][0]] = true
				dispatched[k] = dispatched[k][1:]
			}
			if ev.Thread >= 0 {
				threads[ev.Thread] = true
			}
			start := ev.Time - ev.Value
			if start < 0 {
				start = 0
			}
			spans = append(spans, ChromeEvent{
				Name: ev.Label, Cat: cat, Ph: "X",
				Ts: start * secToMicros, Dur: ev.Value * secToMicros,
				Pid: pidWorkers, Tid: ev.Thread,
				Args: map[string]any{"query": ev.Query, "op": ev.Op},
			})
		}
	}

	// Work dispatched but not completed inside the retained window gets
	// an instant mark on its worker track.
	for i, ev := range events {
		if ev.Kind != metrics.EvDispatch || completed[i] {
			continue
		}
		if ev.Thread >= 0 {
			threads[ev.Thread] = true
		}
		spans = append(spans, ChromeEvent{
			Name: "dispatch " + ev.Label, Cat: ev.Kind.String(), Ph: "i", S: "t",
			Ts: ev.Time * secToMicros, Pid: pidWorkers, Tid: ev.Thread,
			Args: map[string]any{"query": ev.Query, "op": ev.Op},
		})
	}

	// Queries admitted but not finished inside the retained window get
	// an instant mark so open work is visible in the timeline.
	for _, id := range sortedIntKeys(queries) {
		info := queries[id]
		if info.finished || info.admit < 0 {
			continue
		}
		spans = append(spans, ChromeEvent{
			Name: "admit " + spanName(info.name, id), Cat: metrics.EvQueryAdmit.String(), Ph: "i", S: "t",
			Ts: info.admit * secToMicros, Pid: pidQueries, Tid: id,
		})
	}

	// Track-name metadata, in deterministic order.
	for _, id := range sortedIntKeys(queries) {
		meta("thread_name", pidQueries, id, map[string]any{"name": spanName(queries[id].name, id)})
	}
	for _, id := range sortedIntKeys(threads) {
		meta("thread_name", pidWorkers, id, map[string]any{"name": fmt.Sprintf("worker %d", id)})
	}

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Ts < spans[j].Ts })
	tr.TraceEvents = append(tr.TraceEvents, spans...)
	return tr
}

// ChromeTraceJSON renders a trace ring as Chrome trace-event JSON (an
// empty trace for a nil ring).
func ChromeTraceJSON(tr *metrics.Tracer) ([]byte, error) {
	return json.MarshalIndent(BuildChromeTrace(tr.Events(), tr.Total()), "", " ")
}

// WriteChromeTrace writes a trace ring to path as Chrome trace-event
// JSON, the file the CLIs' -trace-out flag produces.
func WriteChromeTrace(path string, tr *metrics.Tracer) error {
	data, err := ChromeTraceJSON(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanName labels a query track/span: "q3 tpch_q14" or "q3" when the
// query name never made it into the retained window.
func spanName(label string, id int) string {
	if label == "" {
		return fmt.Sprintf("q%d", id)
	}
	return fmt.Sprintf("q%d %s", id, label)
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
