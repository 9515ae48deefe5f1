package rpcsched

import (
	"errors"
	"net"
	"syscall"
	"testing"
)

// testService is the receiver the transport tests mount with
// RegisterName: Echo answers at once, Park holds its call in flight
// until released, and Bulk replies with n bytes, which the gob codec
// flushes as one large write.
type testService struct {
	entered chan struct{}
	release chan struct{}
}

func (s *testService) Echo(x int, reply *int) error {
	*reply = x
	return nil
}

func (s *testService) Park(_ int, reply *int) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

func (s *testService) Bulk(n int, reply *[]byte) error {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	*reply = b
	return nil
}

// newTestServer builds a server with a testService mounted as "Test".
func newTestServer(t *testing.T, opts ServerOptions) (*Server, *testService) {
	t.Helper()
	srv, err := NewServer(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	svc := &testService{entered: make(chan struct{}), release: make(chan struct{})}
	if err := srv.RegisterName("Test", svc); err != nil {
		t.Fatal(err)
	}
	return srv, svc
}

// acceptErrListener fails its first Accept with err, then hands out the
// pipe listener's connections.
type acceptErrListener struct {
	*pipeListener
	err error
}

func (l *acceptErrListener) Accept() (net.Conn, error) {
	if err := l.err; err != nil {
		l.err = nil
		return nil, err
	}
	return l.pipeListener.Accept()
}

// TestServeReturnsAcceptError: an Accept failure that is not a shutdown
// (here EMFILE) must end Serve with that error, not a nil that reads as
// a clean close while the server has stopped accepting connections.
func TestServeReturnsAcceptError(t *testing.T) {
	srv, _ := newTestServer(t, ServerOptions{})
	t.Cleanup(func() { srv.Close() })
	lis := &acceptErrListener{
		pipeListener: newPipeListener(),
		err:          &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE},
	}
	if err := srv.Serve(lis); !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("Serve after a failed Accept returned %v, want EMFILE", err)
	}
}
