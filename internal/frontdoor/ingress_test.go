package frontdoor

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

const validBody = `{"tenant":"acme","class":"latency","deadline_ms":5000,"ops":[{"type":0,"blocks":2}]}`

// TestHTTPIngress: a valid POST flows submit-to-disposition and
// answers with the admitted outcome; malformed requests answer 400.
func TestHTTPIngress(t *testing.T) {
	fd := mustFD(t, Options{Backend: &fakeBackend{delay: time.Millisecond}, MaxInFlight: 2})
	srv := httptest.NewServer(fd.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(validBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Outcome != "admitted" || !r.DeadlineMet {
		t.Fatalf("response %+v", r)
	}

	for _, bad := range []string{
		`{"tenant":"","ops":[{"type":0}]}`,
		`{"tenant":"acme","deadline_ms":-1,"ops":[{"type":0}]}`,
		`{"tenant":"acme","ops":[]}`,
		`no json`,
	} {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET status %d", resp.StatusCode)
		}
	}
}

// TestHTTPClientDisconnectCancelsQueued: a client that gives up while
// its query is queued must not hold the queue slot.
func TestHTTPClientDisconnectCancelsQueued(t *testing.T) {
	be := &blockingBackend{entered: make(chan struct{}, 16), release: make(chan struct{})}
	fd := mustFD(t, Options{Backend: be, MaxInFlight: 1})
	srv := httptest.NewServer(fd.Handler())
	defer srv.Close()
	// Declared after srv.Close so it runs first: srv.Close waits for the
	// in-flight handler, whose backend is parked on this channel.
	defer close(be.release)

	// Occupy the only slot.
	go http.Post(srv.URL, "application/json", strings.NewReader(validBody)) //nolint:errcheck
	<-be.entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader(validBody))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	// The abandoned query must leave the queue (shed as cancelled).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fd.Stats()
		if st.Shed == 1 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned query still queued: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestObsFrontDoorEndpoint wires fd.Status into the obs server and
// checks the /frontdoor endpoint serves it.
func TestObsFrontDoorEndpoint(t *testing.T) {
	fd := mustFD(t, Options{Backend: &fakeBackend{}, MaxInFlight: 1})
	tk, _ := fd.Submit(q("acme", ClassLatency))
	waitOutcome(t, tk)

	o := obs.NewServer(obs.Options{FrontDoor: fd.Status})
	rr := httptest.NewRecorder()
	o.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/frontdoor", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var st StatusData
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Admitted != 1 || len(st.Tenants) != 1 || st.Tenants[0].Tenant != "acme" {
		t.Fatalf("status payload %+v", st)
	}
}
