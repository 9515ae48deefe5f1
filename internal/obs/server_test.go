package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// get fetches one endpoint from a started server and returns the body.
func get(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	reg, tr, res := runTestSim(t, 7)
	srv := NewServer(Options{Metrics: reg, Trace: tr})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t.Run("index", func(t *testing.T) {
		code, body := get(t, addr, "/")
		if code != http.StatusOK || !strings.Contains(string(body), "/metrics") {
			t.Fatalf("index = %d %q", code, body)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, body := get(t, addr, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		text := string(body)
		for _, want := range []string{
			"# TYPE engine_workorders_completed counter",
			"# TYPE engine_queue_depth gauge",
			"# TYPE engine_query_latency histogram",
			`engine_query_latency_bucket{le="+Inf"} ` + fmt.Sprint(len(res.Durations)),
			"engine_query_latency_count " + fmt.Sprint(len(res.Durations)),
		} {
			if !strings.Contains(text, want) {
				t.Errorf("exposition missing %q:\n%s", want, text)
			}
		}
	})

	t.Run("trace.chrome", func(t *testing.T) {
		code, body := get(t, addr, "/trace.chrome")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		var ct ChromeTrace
		if err := json.Unmarshal(body, &ct); err != nil {
			t.Fatal(err)
		}
		if len(ct.TraceEvents) == 0 {
			t.Fatal("no chrome trace events")
		}
		if got := ct.OtherData["trace_total"]; got != float64(tr.Total()) {
			t.Fatalf("otherData trace_total = %v, want %d", got, tr.Total())
		}
	})

	t.Run("pprof", func(t *testing.T) {
		code, body := get(t, addr, "/debug/pprof/")
		if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
			t.Fatalf("pprof index = %d %q", code, truncate(body, 80))
		}
	})

	t.Run("unknown-path", func(t *testing.T) {
		if code, _ := get(t, addr, "/nope"); code != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", code)
		}
	})
}

// TestServerNilSources: a server over nil registry/tracer must serve
// empty payloads, not panic — the CLIs construct sources conditionally.
func TestServerNilSources(t *testing.T) {
	srv := NewServer(Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/trace.chrome", "/policy", "/frontdoor", "/cluster"} {
		if code, _ := get(t, addr, path); code != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, code)
		}
	}
}

// TestServerCluster: /cluster serves whatever snapshot the routing
// layer provides, verbatim as JSON.
func TestServerCluster(t *testing.T) {
	type nodeView struct {
		ID      string `json:"id"`
		Healthy bool   `json:"healthy"`
	}
	type clusterView struct {
		Policy string     `json:"policy"`
		Nodes  []nodeView `json:"nodes"`
	}
	srv := NewServer(Options{
		Cluster: func() any {
			return clusterView{Policy: "least-loaded", Nodes: []nodeView{{ID: "node-0", Healthy: true}}}
		},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, addr, "/cluster")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var got clusterView
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Policy != "least-loaded" || len(got.Nodes) != 1 || got.Nodes[0].ID != "node-0" {
		t.Fatalf("cluster payload = %+v", got)
	}
}

// TestIndexRoutesAnswer: every path the / index page lists is served
// (the page and the mux are built from one table), and the index lists
// exactly the endpoints the server exposes.
func TestIndexRoutesAnswer(t *testing.T) {
	s := NewServer(Options{})
	code, body := serve(t, s, "/")
	if code != http.StatusOK {
		t.Fatalf("index status %d", code)
	}
	var paths []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "/") {
			paths = append(paths, f[0])
		}
	}
	want := []string{"/metrics", "/trace.chrome", "/policy", "/frontdoor", "/decisions",
		"/drift", "/slo", "/cluster", "/healthz", "/debug/pprof/"}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Fatalf("index lists %v, want %v", paths, want)
	}
	for _, path := range paths {
		if code, _ := serve(t, s, path); code == http.StatusNotFound {
			t.Errorf("%s is on the index page but answers 404", path)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(Options{Metrics: metrics.NewRegistry()})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close() // second close must not panic or deadlock
	// A never-started server closes cleanly too.
	if err := NewServer(Options{}).Close(); err != nil {
		t.Fatal(err)
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
