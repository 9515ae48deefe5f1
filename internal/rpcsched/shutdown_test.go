package rpcsched

import (
	"net"
	"net/rpc"
	"sync"
	"testing"
	"time"
)

// startServer listens on loopback and serves a testService until
// cleanup.
func startServer(t *testing.T, opts ServerOptions) (*Server, *testService, string, chan error) {
	t.Helper()
	srv, svc := newTestServer(t, opts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	t.Cleanup(func() { srv.Close() })
	return srv, svc, lis.Addr().String(), serveDone
}

// TestDeadConnectionTimesOut is the satellite requirement: a client that
// connects and then goes silent must have its connection closed by the
// per-connection I/O deadline instead of wedging a server goroutine.
func TestDeadConnectionTimesOut(t *testing.T) {
	const ioTimeout = 150 * time.Millisecond
	_, _, addr, _ := startServer(t, ServerOptions{IOTimeout: ioTimeout})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Dead client: never send a request. The server's read deadline
	// must fire and hang up; we observe that as our read unblocking
	// with a closed/reset connection well before our own 5s guard.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 1)
	_, rerr := conn.Read(buf)
	elapsed := time.Since(start)
	if rerr == nil {
		t.Fatal("server sent data to a client that never issued a request")
	}
	if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server never hung up on the dead connection (local read guard fired after %v)", elapsed)
	}
	if elapsed > 10*ioTimeout {
		t.Fatalf("dead connection closed after %v; deadline is %v", elapsed, ioTimeout)
	}

	// The service itself is unharmed: a healthy client still gets
	// answers.
	rc, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 1; i <= 3; i++ {
		var got int
		if err := rc.Call("Test.Echo", i, &got); err != nil || got != i {
			t.Fatalf("call %d after dead-connection reap: reply %d, err %v", i, got, err)
		}
	}
}

// TestShutdownDrainsInFlight holds a call open inside the receiver,
// shuts down concurrently, and asserts the shutdown waits for the call
// and the caller still receives its reply.
func TestShutdownDrainsInFlight(t *testing.T) {
	srv, svc, addr, serveDone := startServer(t, ServerOptions{})

	rc, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	callDone := make(chan error, 1)
	go func() {
		var reply int
		callDone <- rc.Call("Test.Park", 0, &reply)
	}()
	<-svc.entered // the call is now in flight server-side

	shutDone := make(chan struct{})
	go func() {
		srv.Shutdown(10 * time.Second)
		close(shutDone)
	}()
	select {
	case <-shutDone:
		t.Fatal("Shutdown returned while a call was still in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(svc.release)
	if err := <-callDone; err != nil {
		t.Fatalf("in-flight call failed during graceful shutdown: %v", err)
	}
	select {
	case <-shutDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight call drained")
	}

	// The accept loop exited cleanly and the listener is gone.
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
	if _, err := rpc.Dial("tcp", addr); err == nil {
		t.Fatal("new connection accepted after shutdown")
	}
}

// TestShutdownDrainTimeout: a call that never finishes must not hold
// Shutdown hostage past the drain budget.
func TestShutdownDrainTimeout(t *testing.T) {
	srv, svc, addr, _ := startServer(t, ServerOptions{})
	defer close(svc.release) // unstick the parked handler at test end

	rc, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	go func() {
		var reply int
		rc.Call("Test.Park", 0, &reply)
	}()
	<-svc.entered

	start := time.Now()
	if err := srv.Shutdown(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v despite a 100ms drain budget", elapsed)
	}
}

// pipeListener hands out pre-made in-memory connections: net.Pipe is
// synchronous and unbuffered, so the server's write pace is exactly the
// client's read pace — no kernel socket buffering to hide stalls behind,
// and no TCP window heuristics to make timing flaky.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
}

func newPipeListener(conns ...net.Conn) *pipeListener {
	ch := make(chan net.Conn, len(conns))
	for _, c := range conns {
		ch <- c
	}
	return &pipeListener{conns: ch}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.conns) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "unix"} }

// throttledConn reads in small sips with a pause after each one — a
// slow-but-live client: always making progress, never fast.
type throttledConn struct {
	net.Conn
	chunk int
	pause time.Duration
}

func (t *throttledConn) Read(p []byte) (int, error) {
	if len(p) > t.chunk {
		p = p[:t.chunk]
	}
	n, err := t.Conn.Read(p)
	time.Sleep(t.pause)
	return n, err
}

// TestSlowButLiveClientSurvivesLargeResponse is the regression test for
// the streaming-response deadline fix: a response much larger than the
// client can drain within one IOTimeout must still arrive intact,
// because the connection deadline is re-armed per write chunk (bounding
// stall time, not total transfer time, and keeping the parked
// next-request read from timing out under an in-flight reply). Before
// the fix the whole response ran under one stale deadline window and the
// server killed the connection mid-drain.
func TestSlowButLiveClientSurvivesLargeResponse(t *testing.T) {
	const ioTimeout = 200 * time.Millisecond
	const size = 512 << 10 // one ~500 KB gob response

	srv, _ := newTestServer(t, ServerOptions{IOTimeout: ioTimeout})
	srvConn, cliConn := net.Pipe()
	go srv.Serve(newPipeListener(srvConn)) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })

	// ~800 KB/s: the full response takes several IOTimeout windows, but
	// every individual write chunk drains well within one.
	client := rpc.NewClient(&throttledConn{Conn: cliConn, chunk: 8 << 10, pause: 10 * time.Millisecond})
	defer client.Close()

	start := time.Now()
	var reply []byte
	if err := client.Call("Test.Bulk", size, &reply); err != nil {
		t.Fatalf("slow-but-live client was cut off mid-response: %v", err)
	}
	elapsed := time.Since(start)
	if len(reply) != size {
		t.Fatalf("got %d bytes, want %d", len(reply), size)
	}
	if elapsed < ioTimeout {
		t.Logf("transfer finished in %v (< one %v deadline window); throttle too weak to exercise the re-arm path", elapsed, ioTimeout)
	}
}
