package cluster

import (
	"errors"
	"sync"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/rpcsched"
)

// Wire types for the ClusterNode RPC service. Query-level failures
// travel in SubmitReply.Err, not as RPC errors, so a non-nil error
// from any NodeClient call unambiguously means the transport (and
// therefore the node) failed — the signal the coordinator re-dispatches
// on.

// SubmitRequest routes one admitted query to a node.
type SubmitRequest struct {
	Req frontdoor.Request
}

// SubmitReply is the node's execution report.
type SubmitReply struct {
	// Err is the query-level failure ("" = success): validation, plan
	// lookup, execution. Terminal — the coordinator does not retry it.
	Err string
	// Draining reports the node refused the query because it is
	// draining; the coordinator re-dispatches elsewhere.
	Draining bool
	// OpDurations/OpMemory travel back to the admitting front door,
	// whose estimator they train (frontdoor.Result shape).
	OpDurations map[int]float64
	OpMemory    map[int]float64
}

// HealthArgs is the (empty) Health request.
type HealthArgs struct{}

// HealthReply is one node's heartbeat snapshot.
type HealthReply struct {
	ID            string
	Draining      bool
	PolicyVersion int
	InFlight      int
	Completed     int64
	Failed        int64
}

// InstallRequest pushes one policy checkpoint to a node.
type InstallRequest struct {
	Version int
	Params  []byte
}

// InstallReply reports the install. Err != "" means the node kept its
// previous policy (per-node rollback).
type InstallReply struct {
	Err string
}

// DrainArgs bounds the drain wait.
type DrainArgs struct {
	TimeoutMS int64
}

// DrainReply reports whether in-flight queries drained in time.
type DrainReply struct {
	Drained bool
}

// serveSubmit is the Submit implementation behind the RPC receiver
// (and the tests' in-process client).
func (n *Node) serveSubmit(req *SubmitRequest, reply *SubmitReply) {
	q, err := req.Req.Validate()
	if err != nil {
		reply.Err = err.Error()
		return
	}
	res, err := n.Run(q)
	if err != nil {
		if errors.Is(err, ErrDraining) {
			reply.Draining = true
			return
		}
		reply.Err = err.Error()
		return
	}
	if res != nil {
		reply.OpDurations = res.OpDurations
		reply.OpMemory = res.OpMemory
	}
}

// NodeRPC is the net/rpc receiver exposing a Node, mounted on an
// rpcsched.Server via MountNode so cluster traffic gets the server's
// per-connection I/O deadlines and shutdown drain.
type NodeRPC struct {
	n *Node
}

// MountNode registers the node on srv under the "ClusterNode" service
// name.
func MountNode(srv *rpcsched.Server, n *Node) error {
	return srv.RegisterName("ClusterNode", &NodeRPC{n: n})
}

// Submit executes one routed query (blocking; net/rpc runs each call
// in its own goroutine).
func (r *NodeRPC) Submit(req *SubmitRequest, reply *SubmitReply) error {
	r.n.serveSubmit(req, reply)
	return nil
}

// Health answers the coordinator's heartbeat.
func (r *NodeRPC) Health(_ *HealthArgs, reply *HealthReply) error {
	*reply = r.n.Health()
	return nil
}

// Install swaps the node's serving policy to the pushed checkpoint.
func (r *NodeRPC) Install(req *InstallRequest, reply *InstallReply) error {
	if err := r.n.Install(req.Version, req.Params); err != nil {
		reply.Err = err.Error()
	}
	return nil
}

// Drain marks the node unroutable and waits for in-flight queries.
func (r *NodeRPC) Drain(args *DrainArgs, reply *DrainReply) error {
	reply.Drained = r.n.Drain(time.Duration(args.TimeoutMS) * time.Millisecond)
	return nil
}

// NodeClient is the coordinator's handle on one node. A non-nil error
// from any call means the transport failed (node presumed down);
// query- and install-level failures arrive inside the replies.
type NodeClient interface {
	Submit(req *SubmitRequest) (*SubmitReply, error)
	Health() (*HealthReply, error)
	Install(req *InstallRequest) (*InstallReply, error)
	Close() error
}

// ErrNodeDown is the transport error of a node that stopped answering:
// the coordinator wraps it when a query exhausts its dispatch attempts.
var ErrNodeDown = errors.New("cluster: node down")

// RPCClient is the TCP NodeClient: it holds one connection to a node's
// rpcsched server and lazily re-dials (with retry backoff) after any
// call error, so a node restart heals on the next heartbeat instead of
// poisoning the member forever.
type RPCClient struct {
	network, addr string
	retry         rpcsched.RetryOptions

	mu sync.Mutex
	c  *rpcsched.Client
}

// DialNode connects to a node's rpcsched server with retry backoff.
func DialNode(network, addr string, retry rpcsched.RetryOptions) (*RPCClient, error) {
	c, err := rpcsched.DialRetry(network, addr, retry)
	if err != nil {
		return nil, err
	}
	return &RPCClient{network: network, addr: addr, retry: retry, c: c}, nil
}

// Addr returns the node's address.
func (c *RPCClient) Addr() string { return c.addr }

func (c *RPCClient) call(method string, args, reply any) error {
	c.mu.Lock()
	cli := c.c
	c.mu.Unlock()
	if cli == nil {
		fresh, err := rpcsched.DialRetry(c.network, c.addr, c.retry)
		if err != nil {
			return err
		}
		c.mu.Lock()
		if c.c == nil {
			c.c = fresh
		} else {
			fresh.Close() // lost a re-dial race; use the winner
		}
		cli = c.c
		c.mu.Unlock()
	}
	err := cli.Call("ClusterNode."+method, args, reply)
	if err != nil {
		// Connection presumed broken: drop it so the next call re-dials.
		c.mu.Lock()
		if c.c == cli {
			c.c = nil
		}
		c.mu.Unlock()
		cli.Close()
	}
	return err
}

// Submit implements NodeClient.
func (c *RPCClient) Submit(req *SubmitRequest) (*SubmitReply, error) {
	var reply SubmitReply
	if err := c.call("Submit", req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Health implements NodeClient.
func (c *RPCClient) Health() (*HealthReply, error) {
	var reply HealthReply
	if err := c.call("Health", &HealthArgs{}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Install implements NodeClient.
func (c *RPCClient) Install(req *InstallRequest) (*InstallReply, error) {
	var reply InstallReply
	if err := c.call("Install", req, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Close implements NodeClient.
func (c *RPCClient) Close() error {
	c.mu.Lock()
	cli := c.c
	c.c = nil
	c.mu.Unlock()
	if cli != nil {
		return cli.Close()
	}
	return nil
}
