package ingress

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// syncBuffer is a log sink the test can poll while Serve writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitMatch polls the log for re and returns its first submatch.
func waitMatch(t *testing.T, logs *syncBuffer, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if m := rx.FindStringSubmatch(logs.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("log never matched %q:\n%s", re, logs.String())
	return ""
}

// TestServeCoordinatorIngress drives Serve as cmd/lsched-cluster does (a
// backend plus a Cluster status source) over real sockets: the query is
// admitted, the flight recorder, drift, SLO and metrics endpoints
// answer on the obs address (with no engine_ series: a coordinator has
// no engine), /healthz names the cluster engine, and cancelling ctx
// drains and logs conservation and a fully joined provenance count.
func TestServeCoordinatorIngress(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(io.Discard)

	backend := frontdoor.BackendFunc(func(*frontdoor.Query) (*frontdoor.Result, error) { return nil, nil })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, "127.0.0.1:0", "127.0.0.1:0", "learned", 1,
			frontdoor.Options{Backend: backend, MaxInFlight: 2, Metrics: metrics.NewRegistry()},
			obs.Options{Cluster: func() any { return map[string]int{"nodes": 0} }}, "", time.Second)
	}()
	obsURL := waitMatch(t, &logs, `observability on (http://[^/\s]+)/`)
	addr := waitMatch(t, &logs, `front door on (\S+) \(learned admission, 2 slots`)

	body := `{"tenant":"acme","class":"latency","deadline_ms":5000,"ops":[{"type":0,"blocks":2}]}`
	resp, err := http.Post("http://"+addr+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(reply), `"admitted"`) {
		t.Fatalf("POST /query: %d %s", resp.StatusCode, reply)
	}
	for path, want := range map[string]string{
		"/decisions": "acme", "/drift": "{", "/slo": "acme", "/cluster": "nodes", "/healthz": `"cluster"`,
		"/metrics": "frontdoor_",
	} {
		resp, err := http.Get(obsURL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(got), want) {
			t.Errorf("GET %s: %d, want 200 containing %q:\n%s", path, resp.StatusCode, want, got)
		}
		// A coordinator has no engine, so it must export no engine series.
		if path == "/metrics" {
			for _, line := range strings.Split(string(got), "\n") {
				if strings.HasPrefix(line, "engine_") || strings.HasPrefix(line, "# TYPE engine_") {
					t.Errorf("coordinator /metrics exports an engine series: %q", line)
				}
			}
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for _, want := range []string{
		"final: submitted=1 admitted=1 shed=0 rejected=0",
		"provenance: 1 decisions recorded, 1 joined",
	} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("final log lacks %q:\n%s", want, logs.String())
		}
	}
	if err := Serve(context.Background(), "127.0.0.1:0", "", "nope", 1, frontdoor.Options{Backend: backend}, obs.Options{}, "", 0); err == nil {
		t.Error("unknown controller did not error")
	}
}
