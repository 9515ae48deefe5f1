package rpcsched

import (
	"net"
	"testing"
	"time"
)

// TestDialRetryConnectsToLateServer starts the server only after the
// first dial attempts have failed: DialRetry must keep trying within
// its budget and come back with a working client — the node-restart
// scenario a plain Dial turns into a dead cluster.
func TestDialRetryConnectsToLateServer(t *testing.T) {
	// Reserve an address, then close it so early attempts are refused.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	srv, _ := newTestServer(t, ServerOptions{})
	defer srv.Close()
	srvUp := make(chan struct{})
	go func() {
		time.Sleep(120 * time.Millisecond)
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial below will fail the test
		}
		close(srvUp)
		srv.Serve(lis) //nolint:errcheck
	}()

	c, err := DialRetry("tcp", addr, RetryOptions{Attempts: 10, BaseDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("DialRetry against a late server: %v", err)
	}
	defer c.Close()
	select {
	case <-srvUp:
	case <-time.After(2 * time.Second):
		t.Fatal("server never came up")
	}
	// The connection must actually work, not just connect.
	var got int
	if err := c.Call("Test.Echo", 7, &got); err != nil || got != 7 {
		t.Fatalf("call over the retried connection: reply %d, err %v", got, err)
	}
}

// TestDialRetryBoundedBudget pins the failure mode: with nothing
// listening, DialRetry returns the dial error after its attempt budget
// instead of retrying forever.
func TestDialRetryBoundedBudget(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	start := time.Now()
	_, err = DialRetry("tcp", addr, RetryOptions{Attempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("DialRetry succeeded against a dead address")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("3-attempt budget took %v; backoff is unbounded", elapsed)
	}
}
