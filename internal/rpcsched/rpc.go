// Package rpcsched is the cluster's transport: gob over net/rpc with
// per-connection I/O deadlines, a graceful-shutdown drain, and a client
// that dials with retry backoff. A cluster node mounts its ClusterNode
// service on a Server with RegisterName; the coordinator reaches it with
// DialRetry and Client.Call. Inflight, the server's drain counter, is
// also how the front door and the coordinator drain their own work.
//
// Scheduling events never cross it: the engine and the agent share one
// process (the paper's prototype puts its agent behind RPC only because
// its engine is C++ and its agent is not, §7.1).
package rpcsched

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// ServerOptions tunes the connection-serving behavior.
type ServerOptions struct {
	// IOTimeout bounds every read and write on a connection: a client
	// that goes silent mid-request, or stops draining responses, has
	// its connection closed after this long instead of wedging a server
	// goroutine forever. 0 disables deadlines (trusted local links,
	// net.Pipe tests).
	IOTimeout time.Duration
	// WriteChunk caps how many bytes are written under one deadline.
	// Large streaming responses are split into chunks with a fresh
	// deadline armed per chunk, so the deadline bounds *stall*, not
	// total transfer time: a slow-but-live client that keeps draining
	// survives, while a stalled one is still cut off after IOTimeout.
	// 0 selects DefaultWriteChunk; only meaningful with IOTimeout > 0.
	WriteChunk int
}

// DefaultWriteChunk is the per-deadline write granularity: small enough
// that a client draining at a few hundred KB/s completes every chunk
// within a sub-second IOTimeout, large enough to stay off the syscall
// hot path.
const DefaultWriteChunk = 32 << 10

// Server answers RPC connections with graceful shutdown and optional
// per-connection I/O deadlines. The zero ServerOptions disable the
// deadlines.
type Server struct {
	rpcSrv  *rpc.Server
	opts    ServerOptions
	pending Inflight

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	connWG sync.WaitGroup
}

// NewServer builds a server with no services; mount them with
// RegisterName. The first argument is ignored (pass nil); it stays only
// so the benchmark module's call compiles. The error is always nil.
func NewServer(_ any, opts ServerOptions) (*Server, error) {
	if opts.WriteChunk <= 0 {
		opts.WriteChunk = DefaultWriteChunk
	}
	return &Server{rpcSrv: rpc.NewServer(), opts: opts, conns: make(map[net.Conn]struct{})}, nil
}

// RegisterName mounts an RPC receiver (a cluster node) on the server:
// its calls share the server's connections, per-connection I/O
// deadlines and in-flight drain.
func (s *Server) RegisterName(name string, rcvr any) error {
	return s.rpcSrv.RegisterName(name, rcvr)
}

// Serve answers connections from lis until Shutdown or Close, then
// returns nil. Any other Accept failure stops the loop and is returned,
// so a caller that treats a Serve error as fatal learns that the server
// no longer accepts connections.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("rpcsched: server already shut down")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		s.mu.Lock()
		if err != nil {
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func(conn net.Conn) {
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.connWG.Done()
			}()
			var rwc io.ReadWriteCloser = conn
			if s.opts.IOTimeout > 0 {
				rwc = deadlineConn{Conn: conn, timeout: s.opts.IOTimeout, chunk: s.opts.WriteChunk}
			}
			s.rpcSrv.ServeCodec(trackedCodec{ServerCodec: newGobCodec(rwc), pending: &s.pending})
		}(conn)
	}
}

// Shutdown stops the server gracefully: the listener closes (no new
// connections), in-flight calls are drained, and only then
// are the connections torn down. drainTimeout bounds the wait for
// in-flight calls (<= 0 waits indefinitely); past it the connections
// are closed anyway. It returns once every connection goroutine has
// exited.
func (s *Server) Shutdown(drainTimeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}

	// Drain: wait (bounded) for requests that are between header-read
	// and response-flush. The codec-level count means the responses of
	// drained calls have reached the socket before teardown.
	drained := s.pending.Wait(drainTimeout)

	// Tear down the (now idle, or past-deadline) connections and wait
	// for their serve goroutines.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if drained {
		s.connWG.Wait()
		return nil
	}
	// A call overran the drain budget. Its goroutine cannot be
	// cancelled, and net/rpc's per-connection loop waits for its calls,
	// so waiting for the connection goroutines unbounded would inherit
	// the wedge. Give them one more drain budget, then return; a
	// still-stuck handler leaks until it returns on its own.
	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
	}
	return nil
}

// Close shuts down immediately: like Shutdown but without waiting for
// in-flight calls. It still waits for the connection goroutines, which
// exit once their calls return (closing a connection cannot cancel a
// call already executing).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.connWG.Wait()
	return nil
}

// deadlineConn arms a fresh deadline before every read and write, so a
// silent or non-draining peer errors the connection out instead of
// blocking a server goroutine forever.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
	chunk   int
}

func (c deadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write streams p in chunks, re-arming the connection deadline — read
// side included — before each one. Two stale-deadline failure modes are
// fixed by this: (1) a single write deadline across a whole large
// response (the bufio flush of a big reply is one Write call) would kill
// a slow-but-live client mid-drain, so per-chunk deadlines bound *stall*
// rather than total transfer time; (2) while a response streams, net/rpc
// is concurrently parked in ReadRequestHeader for the next request under
// a read deadline armed before the response started — if that fires the
// serve loop tears the connection down under the in-flight reply, so
// every chunk pushes the read deadline forward as evidence the peer is
// live.
func (c deadlineConn) Write(p []byte) (int, error) {
	chunk := c.chunk
	if chunk <= 0 {
		chunk = DefaultWriteChunk
	}
	written := 0
	for written < len(p) {
		end := written + chunk
		if end > len(p) {
			end = len(p)
		}
		if err := c.Conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return written, err
		}
		n, err := c.Conn.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Client is the caller's half of the transport: one connection to a
// Server, safe for concurrent calls.
type Client struct {
	rpc *rpc.Client
}

// RetryOptions tunes DialRetry's backoff schedule. The zero value
// selects the defaults noted per field.
type RetryOptions struct {
	// Attempts is the bounded attempt budget (default 5; values < 1
	// select the default — a single try is Attempts: 1).
	Attempts int
	// BaseDelay is the wait after the first failure (default 50ms);
	// subsequent waits double up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 2s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is randomized (default
	// 0.5): the sleep is delay*(1-Jitter) + rand*delay*Jitter, so a
	// fleet of reconnecting coordinators does not thunder in lockstep.
	Jitter float64
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.Attempts < 1 {
		o.Attempts = 5
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 50 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	if o.Jitter <= 0 || o.Jitter > 1 {
		o.Jitter = 0.5
	}
	return o
}

// DialRetry dials with exponential backoff plus jitter under a bounded
// attempt budget, so a peer that is restarting (a rescheduled worker
// node, a coordinator failing over) is reconnected to instead of
// erroring the caller out on the first refused connection. It returns
// the last dial error once the budget is exhausted.
func DialRetry(network, address string, opts RetryOptions) (*Client, error) {
	o := opts.withDefaults()
	delay := o.BaseDelay
	var lastErr error
	for attempt := 0; attempt < o.Attempts; attempt++ {
		if attempt > 0 {
			sleep := time.Duration(float64(delay) * (1 - o.Jitter))
			sleep += time.Duration(rand.Int63n(int64(float64(delay)*o.Jitter) + 1))
			time.Sleep(sleep)
			if delay *= 2; delay > o.MaxDelay {
				delay = o.MaxDelay
			}
		}
		c, err := rpc.Dial(network, address)
		if err == nil {
			return &Client{rpc: c}, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("rpcsched: dial %s (after %d attempts): %w", address, o.Attempts, lastErr)
}

// Call invokes a method of a service mounted on the server with
// RegisterName ("ClusterNode.Submit").
func (c *Client) Call(serviceMethod string, args, reply any) error {
	return c.rpc.Call(serviceMethod, args, reply)
}

// Close tears down the connection.
func (c *Client) Close() error { return c.rpc.Close() }
