package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestChromeTraceValidity: the export of a deterministic Sim run must
// be well-formed JSON whose span timestamps are monotonically
// consistent (sorted ts, non-negative ts/dur, spans contained within
// the run's makespan).
func TestChromeTraceValidity(t *testing.T) {
	_, tr, res := runTestSim(t, 3)
	data, err := ChromeTraceJSON(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("export is not valid JSON")
	}
	var ct ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatal(err)
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", ct.DisplayTimeUnit)
	}

	makespanUS := res.Makespan * secToMicros
	var spans, querySpans int
	lastTs := -1.0
	sawMeta := false
	for i, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			sawMeta = true
			if lastTs >= 0 {
				t.Fatalf("metadata event %d after span events", i)
			}
			continue
		case "X", "i", "C":
		default:
			t.Fatalf("unexpected phase %q in event %d", ev.Ph, i)
		}
		if ev.Ts < lastTs {
			t.Fatalf("event %d ts=%v < previous %v (not sorted)", i, ev.Ts, lastTs)
		}
		lastTs = ev.Ts
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %d has negative ts/dur: %+v", i, ev)
		}
		if ev.Ph == "X" {
			spans++
			if end := ev.Ts + ev.Dur; end > makespanUS*(1+1e-9) {
				t.Fatalf("span %d ends at %v µs, past makespan %v µs", i, end, makespanUS)
			}
			if ev.Pid == pidQueries {
				querySpans++
			} else if ev.Pid != pidWorkers {
				t.Fatalf("span %d on unknown pid %d", i, ev.Pid)
			}
		}
	}
	if !sawMeta {
		t.Fatal("no metadata (process/thread name) events")
	}
	if querySpans != len(res.Durations) {
		t.Fatalf("query spans = %d, want %d (one per finished query)", querySpans, len(res.Durations))
	}
	if workerSpans := spans - querySpans; workerSpans != res.WorkOrders {
		t.Fatalf("worker spans = %d, want %d (one per work order)", workerSpans, res.WorkOrders)
	}
}

// TestChromeTraceDeterministic: identical Sim runs export identical
// bytes (map iteration must not leak into the output order).
func TestChromeTraceDeterministic(t *testing.T) {
	_, tr1, _ := runTestSim(t, 11)
	_, tr2, _ := runTestSim(t, 11)
	d1, err := ChromeTraceJSON(tr1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ChromeTraceJSON(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("identical runs exported different chrome traces")
	}
}

// TestChromeTraceDroppedAdmit: a wrapped ring that lost the admit event
// must still produce a query span (reconstructed from the finish
// latency) and an instant mark for still-running queries.
func TestChromeTraceDroppedAdmit(t *testing.T) {
	events := []metrics.Event{
		// finish without admit: span reconstructed from latency
		{Kind: metrics.EvQueryFinish, Time: 10, Query: 0, Op: -1, Thread: -1, Value: 4, Label: "qa"},
		// admit without finish: instant mark
		{Kind: metrics.EvQueryAdmit, Time: 8, Query: 1, Op: -1, Thread: -1, Label: "qb"},
	}
	ct := BuildChromeTrace(events, 2)
	var span, instant bool
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" && ev.Tid == 0 && ev.Ts == 6*secToMicros && ev.Dur == 4*secToMicros {
			span = true
		}
		if ev.Ph == "i" && ev.Tid == 1 && ev.Ts == 8*secToMicros {
			instant = true
		}
	}
	if !span {
		t.Fatalf("no reconstructed span for finish-only query: %+v", ct.TraceEvents)
	}
	if !instant {
		t.Fatalf("no instant mark for running query: %+v", ct.TraceEvents)
	}
}

// TestChromeTraceRendersEveryKind: the Chrome trace is the trace
// ring's only rendering, so one event of every kind must reach it
// (categorised by kind name), a dispatch with no completion in the
// window must stay visible, and otherData must report the ring total.
func TestChromeTraceRendersEveryKind(t *testing.T) {
	var events []metrics.Event
	for k := metrics.EventKind(0); !strings.HasPrefix(k.String(), "event("); k++ {
		events = append(events, metrics.Event{
			Seq: uint64(k), Kind: k, Time: float64(k), Query: int(k), Op: 1, Thread: 0, Value: 0.5, Label: "x",
		})
	}
	ct := BuildChromeTrace(events, 100)
	seen := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		seen[ev.Cat] = true
	}
	for _, ev := range events {
		if !seen[ev.Kind.String()] {
			t.Errorf("event kind %s missing from the chrome trace: %+v", ev.Kind, ct.TraceEvents)
		}
	}
	if got := ct.OtherData["trace_total"]; got != uint64(100) {
		t.Fatalf("otherData trace_total = %v, want 100", got)
	}

	// A dispatch whose complete is in the window is drawn by the
	// complete's span alone.
	paired := BuildChromeTrace([]metrics.Event{
		{Kind: metrics.EvDispatch, Time: 1, Query: 0, Op: 2, Thread: 3, Label: "Select"},
		{Kind: metrics.EvComplete, Time: 2, Query: 0, Op: 2, Thread: 3, Value: 1, Label: "Select"},
	}, 2)
	for _, ev := range paired.TraceEvents {
		if ev.Cat == "dispatch" {
			t.Fatalf("completed work order also drawn as in flight: %+v", ev)
		}
	}
}
