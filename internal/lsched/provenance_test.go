package lsched

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/provenance"
)

// TestAgentRecordsScheduleDecisions runs a full simulated workload with
// the flight recorder attached and checks the end-to-end contract: every
// activation decision is captured with the exact flat feature vector
// and root scores, query completions join outcomes, and the spilled
// trace reloads bit-identical.
func TestAgentRecordsScheduleDecisions(t *testing.T) {
	agent := New(DefaultOptions(1))
	agent.SetGreedy(true)
	agent.SetPolicyVersion(5)
	rec := provenance.NewRecorder(provenance.Options{Capacity: 1 << 14})
	var spill bytes.Buffer
	rec.AttachSink(&spill, 256)
	agent.SetProvenance(rec)

	sim := engine.NewSim(engine.SimConfig{Threads: 8, Seed: 1, NoiseFrac: 0.1})
	sim.SetObserver(agent) // what Lab.EvalRun and engine.Live wire up
	arrivals := testArrivals(t, 10, 1)
	res, err := sim.Run(agent, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 10 {
		t.Fatalf("completed %d of 10", len(res.Durations))
	}

	st := rec.Stats()
	if st.Recorded == 0 {
		t.Fatal("no decisions recorded")
	}
	if st.Joined == 0 {
		t.Fatal("no decision joined to its outcome")
	}

	recs := rec.Recent(int(st.Recorded))
	joined := 0
	for _, r := range recs {
		if r.Kind != provenance.KindSchedule {
			t.Fatalf("unexpected kind %v", r.Kind)
		}
		if r.PolicyVersion != 5 {
			t.Fatalf("policy version %d, want 5", r.PolicyVersion)
		}
		if len(r.Features) == 0 || len(r.Scores) == 0 {
			t.Fatalf("seq %d missing features/scores", r.Seq)
		}
		// Scores include the trailing stop logit, so there is always
		// one more score than the action index can reach.
		if r.Action >= int32(len(r.Scores)) {
			t.Fatalf("seq %d action %d out of range for %d scores", r.Seq, r.Action, len(r.Scores))
		}
		if r.Outcome.Joined {
			joined++
			if r.Outcome.LatencySecs <= 0 {
				t.Fatalf("seq %d joined with latency %v", r.Seq, r.Outcome.LatencySecs)
			}
		}
	}
	if joined == 0 {
		t.Fatal("no ringed record carries a joined outcome")
	}

	// The spilled trace must reload bit-identical to the ring.
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := provenance.ReadAll(bytes.NewReader(spill.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != len(recs) {
		t.Fatalf("reloaded %d records, ring has %d", len(reloaded), len(recs))
	}
	for i := range recs {
		w, g := recs[i], reloaded[i]
		if g.Seq != w.Seq || g.QueryID != w.QueryID || len(g.Features) != len(w.Features) {
			t.Fatalf("record %d shape mismatch", i)
		}
		for j := range w.Features {
			if math.Float64bits(g.Features[j]) != math.Float64bits(w.Features[j]) {
				t.Fatalf("record %d feature %d not bit-identical after spill round trip", i, j)
			}
		}
		for j := range w.Scores {
			if math.Float64bits(g.Scores[j]) != math.Float64bits(w.Scores[j]) {
				t.Fatalf("record %d score %d not bit-identical after spill round trip", i, j)
			}
		}
	}
}

// TestAgentProvenanceFastAndFullPathsAgree records the same greedy run
// through OnEvent (feature arena, inference tape) and through the
// recording-tape oracle (flattened fresh snapshot) and requires every
// record to carry the same feature vector, root logits and action bit
// for bit — the two paths must describe the same state.
func TestAgentProvenanceFastAndFullPathsAgree(t *testing.T) {
	records := func(full bool) []provenance.Record {
		a := New(DefaultOptions(1))
		a.SetGreedy(true)
		rec := provenance.NewRecorder(provenance.Options{Capacity: 4096})
		a.SetProvenance(rec)
		var sched engine.Scheduler = a
		if full {
			sched = tapeOracle{a}
		}
		sim := engine.NewSim(engine.SimConfig{Threads: 4, Seed: 7})
		if _, err := sim.Run(sched, testArrivals(t, 3, 7)); err != nil {
			t.Fatal(err)
		}
		recs := rec.Recent(4096)
		if len(recs) == 0 {
			t.Fatal("no decisions recorded")
		}
		return recs
	}
	fast, full := records(false), records(true)
	if len(fast) != len(full) {
		t.Fatalf("fast path recorded %d decisions, full path %d", len(fast), len(full))
	}
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i := range fast {
		f, s := fast[i], full[i]
		if !sameBits(f.Features, s.Features) {
			t.Fatalf("record %d: feature vectors differ (%d vs %d dims)", i, len(f.Features), len(s.Features))
		}
		if !sameBits(f.Scores, s.Scores) {
			t.Fatalf("record %d: root logits differ", i)
		}
		if f.QueryID != s.QueryID || f.Action != s.Action || f.ActionArg != s.ActionArg || f.Heuristic != s.Heuristic {
			t.Fatalf("record %d: fast %+v vs full %+v", i, f, s)
		}
	}
}
