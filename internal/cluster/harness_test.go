package cluster

import (
	"sync/atomic"
	"time"
)

// LocalCluster is the in-process multi-node harness the tests and
// benchmarks drive: N nodes behind LocalClients (with kill switches
// for failure injection) under one coordinator. No sockets — a 3-node
// kill test runs under -race in milliseconds.
type LocalCluster struct {
	Coord *Coordinator
	Nodes []*Node

	clients []*LocalClient
}

// NewLocalCluster wires the nodes to a started coordinator.
func NewLocalCluster(opts Options, nodes ...*Node) (*LocalCluster, error) {
	lc := &LocalCluster{Coord: New(opts), Nodes: nodes}
	for _, n := range nodes {
		client := NewLocalClient(n)
		if err := lc.Coord.AddNode(n.ID(), client); err != nil {
			return nil, err
		}
		lc.clients = append(lc.clients, client)
	}
	if err := lc.Coord.Start(); err != nil {
		return nil, err
	}
	return lc, nil
}

// Kill fails node i: every call to it — including in-flight ones —
// errors like a dead TCP peer.
func (lc *LocalCluster) Kill(i int) { lc.clients[i].Kill() }

// Revive brings node i back; the next heartbeat marks it routable.
func (lc *LocalCluster) Revive(i int) { lc.clients[i].Revive() }

// Close drains and shuts the coordinator down.
func (lc *LocalCluster) Close(drainTimeout time.Duration) bool {
	return lc.Coord.Close(drainTimeout)
}

// LocalClient is the in-process NodeClient the tests use:
// direct calls into a Node, plus a Kill switch that makes every call —
// including ones already in flight — fail like a dead TCP peer.
type LocalClient struct {
	n      *Node
	killed atomic.Bool
}

// NewLocalClient wraps a node.
func NewLocalClient(n *Node) *LocalClient { return &LocalClient{n: n} }

// Kill makes all subsequent (and in-flight) calls fail with
// ErrNodeDown, simulating a node crash: a reply computed after the
// kill is dropped, exactly like a response lost on a closed socket.
func (c *LocalClient) Kill() { c.killed.Store(true) }

// Revive clears the kill switch (a restarted node).
func (c *LocalClient) Revive() { c.killed.Store(false) }

// Submit implements NodeClient.
func (c *LocalClient) Submit(req *SubmitRequest) (*SubmitReply, error) {
	if c.killed.Load() {
		return nil, ErrNodeDown
	}
	var reply SubmitReply
	c.n.serveSubmit(req, &reply)
	if c.killed.Load() {
		return nil, ErrNodeDown // node died before the reply made it out
	}
	return &reply, nil
}

// Health implements NodeClient.
func (c *LocalClient) Health() (*HealthReply, error) {
	if c.killed.Load() {
		return nil, ErrNodeDown
	}
	hr := c.n.Health()
	return &hr, nil
}

// Install implements NodeClient.
func (c *LocalClient) Install(req *InstallRequest) (*InstallReply, error) {
	if c.killed.Load() {
		return nil, ErrNodeDown
	}
	var reply InstallReply
	if err := c.n.Install(req.Version, req.Params); err != nil {
		reply.Err = err.Error()
	}
	return &reply, nil
}

// Close implements NodeClient (no-op).
func (c *LocalClient) Close() error { return nil }
