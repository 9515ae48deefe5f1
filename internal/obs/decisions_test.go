package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/provenance"
)

// provenanceFixture builds a recorder, drift detector, and SLO tracker
// with injected clocks so the endpoint JSON is byte-stable.
func provenanceFixture() (*provenance.Recorder, *provenance.DriftDetector, *provenance.Tracker) {
	var tick int64
	rec := provenance.NewRecorder(provenance.Options{Capacity: 16, Now: func() int64 {
		tick++
		return 1_700_000_000_000_000_000 + tick*1_000_000
	}})
	rec.SetFeatureNames(provenance.KindAdmit, []string{"queue_depth", "pred_dur"})

	d := provenance.NewDriftDetector(provenance.DriftConfig{
		Names: []string{"queue_depth", "pred_dur"}, Window: 8, MinSamples: 4, UpdateEvery: 1,
	})
	ref, err := provenance.BuildReference(
		[]string{"queue_depth", "pred_dur"},
		[][]float64{{0, 0.1}, {1, 0.2}, {2, 0.3}, {3, 0.4}, {4, 0.5}, {5, 0.6}, {6, 0.7}, {7, 0.8}},
		4)
	if err != nil {
		panic(err)
	}
	if err := d.SetReference(ref); err != nil {
		panic(err)
	}
	rec.SetDrift(provenance.KindAdmit, d)

	clock := time.Unix(1_700_000_000, 0)
	slo := provenance.NewSLOTracker(provenance.SLOConfig{Now: func() time.Time { return clock }})

	// Two admissions: one admitted and joined, one shed.
	rec.Record(provenance.KindAdmit, 1, "acme", 3, []float64{2, 0.25}, []float64{0.9}, 0, 0, 0)
	rec.Record(provenance.KindAdmit, 2, "zeta", 3, []float64{6, 0.75}, []float64{0.1}, 2, 0, 0)
	rec.JoinOutcome(provenance.KindAdmit, 1, provenance.Outcome{
		LatencySecs: 0.5, DeadlineMet: true, DurPredErr: 0.05,
	})
	rec.JoinOutcome(provenance.KindAdmit, 2, provenance.Outcome{Shed: true})
	// One schedule decision with no registered names and no outcome yet.
	rec.Record(provenance.KindSchedule, 10, "", 3, []float64{1, 2, 3}, []float64{0.4, 0.6}, 0, 1, 0)

	slo.Observe("acme", "latency", true)
	slo.Observe("zeta", "latency", false)
	slo.Observe("zeta", "latency", true)
	return rec, d, slo
}

// checkGoldenJSON compares a handler body against testdata/<name>,
// honoring -update-golden.
func checkGoldenJSON(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs/ -update-golden` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func serve(t *testing.T, s *Server, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)
	return rw.Code, rw.Body.Bytes()
}

func TestDecisionsEndpointGolden(t *testing.T) {
	rec, d, slo := provenanceFixture()
	s := NewServer(Options{Provenance: rec, Drift: d, SLO: slo})

	code, body := serve(t, s, "/decisions")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	checkGoldenJSON(t, "decisions.json", body)

	code, body = serve(t, s, "/drift")
	if code != http.StatusOK {
		t.Fatalf("drift status %d", code)
	}
	checkGoldenJSON(t, "drift.json", body)

	code, body = serve(t, s, "/slo")
	if code != http.StatusOK {
		t.Fatalf("slo status %d", code)
	}
	checkGoldenJSON(t, "slo.json", body)
}

func TestDecisionsFilters(t *testing.T) {
	rec, _, _ := provenanceFixture()
	s := NewServer(Options{Provenance: rec})

	code, body := serve(t, s, "/decisions?kind=admit")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	out := string(body)
	if strings.Contains(out, `"kind": "schedule"`) {
		t.Fatal("kind filter leaked schedule records")
	}
	if !strings.Contains(out, `"kind": "admit"`) {
		t.Fatal("kind filter dropped admit records")
	}

	if code, _ := serve(t, s, "/decisions?kind=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus kind = %d, want 400", code)
	}
	if code, _ := serve(t, s, "/decisions?n=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad n = %d, want 400", code)
	}
	if code, body := serve(t, s, "/decisions?n=1"); code != http.StatusOK ||
		strings.Count(string(body), `"seq"`) != 1 {
		t.Fatalf("n=1 returned %d records", strings.Count(string(body), `"seq"`))
	}
	// n is sized by the ring, not the query string: a huge n must not
	// allocate n records' worth of slice.
	if code, body := serve(t, s, "/decisions?n=1099511627776"); code != http.StatusOK ||
		strings.Count(string(body), `"seq"`) != 3 {
		t.Fatalf("n=2^40 = %d with %d records, want 200 with all 3", code, strings.Count(string(body), `"seq"`))
	}
}

func TestDecisionsEndpointsNilSources(t *testing.T) {
	s := NewServer(Options{})
	for _, path := range []string{"/decisions", "/drift", "/slo"} {
		if code, _ := serve(t, s, path); code != http.StatusOK {
			t.Fatalf("%s with nil sources = %d, want 200", path, code)
		}
	}
}

func TestDriftFallsBackToRecorderDetector(t *testing.T) {
	rec, d, _ := provenanceFixture()
	s := NewServer(Options{Provenance: rec}) // Drift not wired explicitly
	if got := s.driftDetector(); got != d {
		t.Fatal("driftDetector did not fall back to the recorder's attached detector")
	}
}

func TestHealthz(t *testing.T) {
	// No health source: ready by default.
	s := NewServer(Options{})
	code, body := serve(t, s, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ready": true`) {
		t.Fatalf("default healthz = %d %s", code, body)
	}

	st := HealthStatus{Ready: true, Engine: "up", PolicyVersion: 4}
	s = NewServer(Options{Health: func() HealthStatus { return st }})
	code, body = serve(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("ready healthz = %d", code)
	}
	for _, want := range []string{`"ready": true`, `"engine": "up"`, `"policy_version": 4`, `"draining": false`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("healthz body missing %q:\n%s", want, body)
		}
	}

	st = HealthStatus{Ready: false, Draining: true, Detail: "draining for shutdown"}
	code, body = serve(t, s, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready healthz = %d, want 503", code)
	}
	if !strings.Contains(string(body), `"draining": true`) ||
		!strings.Contains(string(body), "draining for shutdown") {
		t.Fatalf("not-ready body:\n%s", body)
	}
}
