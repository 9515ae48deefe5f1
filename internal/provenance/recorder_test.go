package provenance

import (
	"testing"

	"repro/internal/metrics"
)

func testRecorder(cap int) *Recorder {
	var tick int64
	return NewRecorder(Options{Capacity: cap, Now: func() int64 {
		tick++
		return tick * 1000
	}})
}

func TestRecordAndJoin(t *testing.T) {
	r := testRecorder(16)
	seq := r.Record(KindSchedule, 7, "", 3, []float64{1, 2, 3}, []float64{0.5, 0.5}, 1, 2, 0)
	if seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	r.JoinOutcome(KindSchedule, 7, Outcome{LatencySecs: 1.5, DeadlineMet: true})

	recs := r.ByQuery(KindSchedule, 7)
	if len(recs) != 1 {
		t.Fatalf("ByQuery returned %d records, want 1", len(recs))
	}
	got := recs[0]
	if !got.Outcome.Joined || !got.Outcome.DeadlineMet || got.Outcome.LatencySecs != 1.5 {
		t.Fatalf("outcome not joined correctly: %+v", got.Outcome)
	}
	if got.PolicyVersion != 3 || got.Action != 1 || got.ActionArg != 2 {
		t.Fatalf("record fields wrong: %+v", got)
	}
	st := r.Stats()
	if st.Recorded != 1 || st.Joined != 1 || st.OpenKeys != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJoinReachesWholeChain(t *testing.T) {
	r := testRecorder(16)
	// Three decisions for the same query before its outcome arrives.
	for i := 0; i < 3; i++ {
		r.Record(KindSchedule, 42, "", 0, []float64{float64(i)}, nil, int32(i), 0, 0)
	}
	r.Record(KindSchedule, 99, "", 0, []float64{9}, nil, 0, 0, 0) // unrelated
	r.JoinOutcome(KindSchedule, 42, Outcome{LatencySecs: 2})

	recs := r.ByQuery(KindSchedule, 42)
	if len(recs) != 3 {
		t.Fatalf("chain has %d records, want 3", len(recs))
	}
	for _, rec := range recs {
		if !rec.Outcome.Joined || rec.Outcome.LatencySecs != 2 {
			t.Fatalf("chain record seq %d not joined: %+v", rec.Seq, rec.Outcome)
		}
	}
	if other := r.ByQuery(KindSchedule, 99); other[0].Outcome.Joined {
		t.Fatal("unrelated record was joined")
	}
	if st := r.Stats(); st.Joined != 3 {
		t.Fatalf("joined = %d, want 3", st.Joined)
	}
}

func TestKindsDoNotCrossJoin(t *testing.T) {
	r := testRecorder(16)
	r.Record(KindSchedule, 5, "", 0, []float64{1}, nil, 0, 0, 0)
	r.Record(KindAdmit, 5, "t1", 0, []float64{2}, nil, 0, 0, 0)
	r.JoinOutcome(KindAdmit, 5, Outcome{Shed: true})
	if recs := r.ByQuery(KindSchedule, 5); recs[0].Outcome.Joined {
		t.Fatal("schedule record joined by admit outcome")
	}
	if recs := r.ByQuery(KindAdmit, 5); !recs[0].Outcome.Shed {
		t.Fatal("admit record missing its outcome")
	}
}

func TestRingWrapEvictsOpenChains(t *testing.T) {
	r := testRecorder(8)
	r.Record(KindSchedule, 1, "", 0, []float64{1}, nil, 0, 0, 0)
	// Wrap the ring completely with other queries.
	for i := 0; i < 16; i++ {
		r.Record(KindSchedule, int64(100+i), "", 0, []float64{2}, nil, 0, 0, 0)
	}
	// Query 1's slot was overwritten; the join must not touch whatever
	// lives there now.
	r.JoinOutcome(KindSchedule, 1, Outcome{LatencySecs: 9})
	if st := r.Stats(); st.Joined != 0 {
		t.Fatalf("joined = %d, want 0 after eviction", st.Joined)
	}
	for _, rec := range r.Recent(8) {
		if rec.Outcome.Joined {
			t.Fatalf("seq %d (query %d) wrongly joined", rec.Seq, rec.QueryID)
		}
	}
}

func TestRecentOrderAndBound(t *testing.T) {
	r := testRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(KindSchedule, int64(i), "", 0, []float64{float64(i)}, nil, 0, 0, 0)
	}
	recs := r.Recent(100)
	if len(recs) != 4 {
		t.Fatalf("Recent returned %d, want ring cap 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(7 + i); rec.Seq != want {
			t.Fatalf("recs[%d].Seq = %d, want %d (oldest first)", i, rec.Seq, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[1].Seq != 10 {
		t.Fatalf("Recent(2) = %+v, want newest two", got)
	}
}

// TestRecentHugeN: n reaches Recent straight from /decisions?n=, so
// the result must be sized by the ring, never by n.
func TestRecentHugeN(t *testing.T) {
	r := testRecorder(4)
	if got := r.Recent(1 << 40); len(got) != 0 {
		t.Fatalf("empty recorder returned %d records", len(got))
	}
	for i := 1; i <= 6; i++ {
		r.Record(KindAdmit, int64(i), "", 0, []float64{1}, nil, 0, 0, 0)
	}
	if got := r.Recent(1 << 40); len(got) != 4 || cap(got) > 4 {
		t.Fatalf("Recent(1<<40) = len %d cap %d, want at most the ring capacity 4", len(got), cap(got))
	}
}

func TestUnjoinableAndUnknownJoins(t *testing.T) {
	r := testRecorder(8)
	if seq := r.Record(KindSchedule, -1, "", 0, []float64{1}, []float64{0.1}, -1, 0, 0); seq != 1 {
		t.Fatalf("stop action seq = %d, want 1", seq)
	}
	r.JoinOutcome(KindSchedule, -1, Outcome{}) // must no-op
	r.JoinOutcome(KindSchedule, 999, Outcome{})
	if st := r.Stats(); st.Joined != 0 || st.OpenKeys != 0 {
		t.Fatalf("stats = %+v, want no joins and no open keys", st)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if seq := r.Record(KindAdmit, 1, "t", 0, []float64{1}, nil, 0, 0, 0); seq != 0 {
		t.Fatalf("nil Record returned %d", seq)
	}
	r.JoinOutcome(KindAdmit, 1, Outcome{})
	r.SetFeatureNames(KindAdmit, []string{"x"})
	r.SetDrift(KindAdmit, nil)
	r.AttachSink(nil, 0)
	if err := r.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if got := r.Recent(5); got != nil {
		t.Fatalf("nil Recent = %v", got)
	}
	if got := r.ByQuery(KindAdmit, 1); got != nil {
		t.Fatalf("nil ByQuery = %v", got)
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if names := r.FeatureNames(KindAdmit); names != nil {
		t.Fatalf("nil FeatureNames = %v", names)
	}
}

func TestFeatureNamesRoundTrip(t *testing.T) {
	r := testRecorder(8)
	names := []string{"a", "b"}
	r.SetFeatureNames(KindAdmit, names)
	names[0] = "mutated"
	if got := r.FeatureNames(KindAdmit); len(got) != 2 || got[0] != "a" {
		t.Fatalf("FeatureNames = %v, want defensive copy {a b}", got)
	}
}

func TestInstrumentCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	r := testRecorder(8)
	r.Instrument(reg)
	r.Record(KindSchedule, 1, "", 0, []float64{1}, nil, 0, 0, 0)
	r.Record(KindAdmit, 1, "t", 0, []float64{2}, nil, 0, 0, 0)
	r.JoinOutcome(KindAdmit, 1, Outcome{})
	if v := reg.Counter(metrics.LabeledName("provenance_records", "kind", "schedule")).Value(); v != 1 {
		t.Fatalf("schedule records counter = %d", v)
	}
	if v := reg.Counter(metrics.LabeledName("provenance_records", "kind", "admit")).Value(); v != 1 {
		t.Fatalf("admit records counter = %d", v)
	}
	if v := reg.Counter("provenance_joins").Value(); v != 1 {
		t.Fatalf("joins counter = %d", v)
	}
}

// TestRecordSteadyStateAllocs proves the serving fast path is
// allocation-free once the ring's slabs are warm.
func TestRecordSteadyStateAllocs(t *testing.T) {
	r := testRecorder(64)
	feats := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	scores := []float64{0.1, 0.2, 0.3}
	// Warm every slot's slabs and the open map.
	for i := 0; i < 256; i++ {
		r.Record(KindSchedule, int64(i%32), "", 1, feats, scores, 0, 0, 0)
		r.JoinOutcome(KindSchedule, int64(i%32), Outcome{})
	}
	qid := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KindSchedule, qid%32, "", 1, feats, scores, 0, 0, 0)
		r.JoinOutcome(KindSchedule, qid%32, Outcome{DeadlineMet: true})
		qid++
	})
	if allocs > 0 {
		t.Fatalf("steady-state Record+Join allocates %.1f/op, want 0", allocs)
	}
}

func TestOpenMapSweep(t *testing.T) {
	r := testRecorder(8)
	// Many distinct never-joined queries force the open map past the
	// ring size and trigger the sweep.
	for i := 0; i < 100; i++ {
		r.Record(KindSchedule, int64(i), "", 0, []float64{1}, nil, 0, 0, 0)
	}
	if st := r.Stats(); st.OpenKeys > 8 {
		t.Fatalf("open keys = %d, want <= ring cap 8 after sweep", st.OpenKeys)
	}
}
