package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/policystore"
	"repro/internal/serving"
)

// TestPolicyEndpoint wires a real store and hot slot behind /policy and
// checks the payload reflects them (and that a policy-less server still
// answers).
func TestPolicyEndpoint(t *testing.T) {
	store, err := policystore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := store.Put(policystore.PutOptions{Params: []byte("params"), Source: "test"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Promote(1); err != nil {
		t.Fatal(err)
	}
	hot := serving.NewHotAgent(heuristics.Fair{}, 1)
	hot.Install(heuristics.Fair{}, 2) // one hot-swap

	srv := NewServer(Options{Policy: serving.PolicyStatusProvider(store, hot)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, addr, "/policy")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var st serving.PolicyStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad /policy JSON: %v\n%s", err, body)
	}
	if st.ActiveVersion != 1 {
		t.Errorf("active_version = %d, want 1", st.ActiveVersion)
	}
	if st.ServingVersion != 2 {
		t.Errorf("serving_version = %d, want 2", st.ServingVersion)
	}
	if st.Swaps != 1 {
		t.Errorf("swaps = %d, want 1", st.Swaps)
	}
	if len(st.Versions) != 2 {
		t.Errorf("versions = %+v, want 2 entries", st.Versions)
	}

	// The index advertises the endpoint.
	if _, idx := get(t, addr, "/"); !strings.Contains(string(idx), "/policy") {
		t.Error("index does not list /policy")
	}

	// Without a provider the endpoint serves an empty object, not 404.
	bare := NewServer(Options{})
	bareAddr, err := bare.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	code, body = get(t, bareAddr, "/policy")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "{}" {
		t.Fatalf("policy-less /policy = %d %q, want 200 {}", code, body)
	}
}

// TestPolicyCountersExposition checks the hot-swap counter registered
// by serving.HotAgent surfaces in the Prometheus text format.
func TestPolicyCountersExposition(t *testing.T) {
	reg := metrics.NewRegistry()

	hot := serving.NewHotAgent(heuristics.Fair{}, 1)
	hot.Instrument(reg)
	hot.Install(heuristics.Fair{}, 2) // policy_swaps_total -> 1

	srv := NewServer(Options{Metrics: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE policy_swaps_total counter",
		"policy_swaps_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
