package cluster

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/frontdoor"
	"repro/internal/rpcsched"
)

// unitSleepBackend simulates execution: sleep proportional to the
// plan's total work units, so predicted load and actual load agree.
func unitSleepBackend(perUnit time.Duration) frontdoor.BackendFunc {
	return func(q *frontdoor.Query) (*frontdoor.Result, error) {
		units := 0
		for _, ow := range q.Ops {
			units += ow.Units
		}
		time.Sleep(time.Duration(units) * perUnit)
		return nil, nil
	}
}

func testNode(t testing.TB, id string, backend frontdoor.Backend) *Node {
	t.Helper()
	n, err := NewNode(NodeOptions{ID: id, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testQuery builds a query as a front door would hand it over: already
// priced (the coordinator routes on the carried price and has no
// estimator of its own), at the front door's cold prior of 10 ms/unit.
func testQuery(tenant string, units int) *frontdoor.Query {
	return &frontdoor.Query{
		Tenant:  tenant,
		Class:   frontdoor.ClassThroughput,
		Ops:     []costmodel.OpWork{{Key: 1, Units: units}},
		PredDur: 0.01 * float64(units),
	}
}

func TestPolicies(t *testing.T) {
	views := []NodeView{
		{Index: 0, ID: "a", Started: 1, PredLoad: 0.5},
		{Index: 2, ID: "b", Started: 3, PredLoad: 0.1},
		{Index: 5, ID: "c", Started: 0, PredLoad: 0.1},
	}
	if got := (LeastLoaded{}).Pick(views, "t"); got != 2 {
		t.Fatalf("least-loaded picked %d, want 2 (min load, fewer started)", got)
	}
	rr := &RoundRobin{}
	seen := map[int]int{}
	for i := 0; i < 6; i++ {
		seen[rr.Pick(views, "t")]++
	}
	if seen[0] != 2 || seen[1] != 2 || seen[2] != 2 {
		t.Fatalf("round-robin distribution %v, want uniform", seen)
	}
	th := TenantHash{}
	first := th.Pick(views, "tenant-7")
	for i := 0; i < 10; i++ {
		if th.Pick(views, "tenant-7") != first {
			t.Fatal("tenant-hash is not stable for a fixed tenant and view set")
		}
	}
	spread := map[int]bool{}
	for i := 0; i < 32; i++ {
		spread[th.Pick(views, fmt.Sprintf("tenant-%d", i))] = true
	}
	if len(spread) < 2 {
		t.Fatal("tenant-hash sent 32 tenants to one node")
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("PolicyByName accepted an unknown policy")
	}
}

// TestClusterRoutes200QueriesZeroLost is the 2-node smoke: every
// submitted query reaches exactly one terminal state and the
// coordinator's conservation counters agree.
func TestClusterRoutes200QueriesZeroLost(t *testing.T) {
	lc, err := NewLocalCluster(Options{MaxPerNode: 4, HeartbeatInterval: 50 * time.Millisecond},
		testNode(t, "node-0", unitSleepBackend(20*time.Microsecond)),
		testNode(t, "node-1", unitSleepBackend(20*time.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := lc.Coord.Run(testQuery(fmt.Sprintf("tenant-%d", i%4), 1+i%8)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query failed: %v", err)
	}
	st := lc.Coord.Status()
	if st.Routed != n || st.Completed != n || st.Failed != 0 {
		t.Fatalf("conservation broken: routed=%d completed=%d failed=%d (want %d/%d/0)",
			st.Routed, st.Completed, st.Failed, n, n)
	}
	var nodeTotal int64
	for _, ns := range st.Nodes {
		nodeTotal += ns.Completed
		if ns.InFlight != 0 || ns.Queued != 0 {
			t.Fatalf("node %s still has work after all queries resolved: %+v", ns.ID, ns)
		}
	}
	if nodeTotal != n {
		t.Fatalf("per-node completions sum to %d, want %d", nodeTotal, n)
	}
	if !lc.Close(time.Second) {
		t.Fatal("coordinator drain timed out")
	}
}

// TestFrontDoorOverCluster mounts the coordinator as a front door
// backend: admission happens centrally, execution is routed, and the
// conservation invariants hold at both layers.
func TestFrontDoorOverCluster(t *testing.T) {
	lc, err := NewLocalCluster(Options{MaxPerNode: 4},
		testNode(t, "node-0", unitSleepBackend(10*time.Microsecond)),
		testNode(t, "node-1", unitSleepBackend(10*time.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := frontdoor.New(frontdoor.Options{Backend: lc.Coord, MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tk, err := fd.Submit(testQuery("tenant-a", 2))
		if err != nil {
			continue // rejected: still a terminal state
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-tk.Done()
		}()
	}
	wg.Wait()
	if !fd.Shutdown(5 * time.Second) {
		t.Fatal("front door drain timed out")
	}
	fst := fd.Stats()
	if fst.Admitted+fst.Shed+fst.Rejected != fst.Submitted {
		t.Fatalf("front door conservation broken: %+v", fst)
	}
	cst := lc.Coord.Status()
	if cst.Completed+cst.Failed != cst.Routed {
		t.Fatalf("cluster conservation broken: %+v", cst)
	}
	if cst.Completed != fst.Admitted {
		t.Fatalf("admitted %d queries but cluster completed %d", fst.Admitted, cst.Completed)
	}
	if !lc.Close(time.Second) {
		t.Fatal("coordinator drain timed out")
	}
}

// TestRoutingUsesFrontDoorPrice: a query admitted through a real front
// door reaches Coordinator.Run carrying the door's price, and that
// price alone steers load-aware routing — with occupancy tied, the
// second light query avoids the node holding the heavy-priced one.
func TestRoutingUsesFrontDoorPrice(t *testing.T) {
	release := make(chan struct{})
	gated := frontdoor.BackendFunc(func(*frontdoor.Query) (*frontdoor.Result, error) {
		<-release
		return nil, nil
	})
	lc, err := NewLocalCluster(Options{MaxPerNode: 4},
		testNode(t, "node-0", gated), testNode(t, "node-1", gated))
	if err != nil {
		t.Fatal(err)
	}
	// A trained window, so the price is nobody's default prior.
	est := costmodel.NewEstimator(8, 0.01, 1)
	est.ObserveCompletion(1, 0.5, 1)
	fd, err := frontdoor.New(frontdoor.Options{Backend: lc.Coord, MaxInFlight: 8, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	// submit admits one unpriced query and returns the cluster's state
	// once the coordinator has dispatched it.
	inFlight := 0
	submit := func(units int) (*frontdoor.Query, *frontdoor.Ticket, Status) {
		t.Helper()
		q := &frontdoor.Query{Tenant: "t", Ops: []costmodel.OpWork{{Key: 1, Units: units}}}
		tk, err := fd.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		inFlight++
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			st := lc.Coord.Status()
			if st.Nodes[0].InFlight+st.Nodes[1].InFlight == inFlight {
				return q, tk, st
			}
		}
		t.Fatalf("query %d never dispatched", inFlight)
		return nil, nil, Status{}
	}

	heavy, hTk, st := submit(50)
	want, _ := est.PredictTotals(heavy.Ops)
	if heavy.PredDur != want || want <= 0 {
		t.Fatalf("heavy query carries PredDur %v, front door estimator says %v", heavy.PredDur, want)
	}
	if st.Nodes[0].InFlight != 1 || st.Nodes[0].PredLoadSecs != want {
		t.Fatalf("heavy query: node-0 %+v, want 1 in flight at the carried price %v", st.Nodes[0], want)
	}
	_, l1Tk, st := submit(1)
	if st.Nodes[1].InFlight != 1 {
		t.Fatalf("first light query: nodes %+v, want it on the idle node-1", st.Nodes)
	}
	// Occupancy is now tied at one each; only the price differs.
	_, l2Tk, st := submit(1)
	if st.Nodes[0].InFlight != 1 || st.Nodes[1].InFlight != 2 {
		t.Fatalf("second light query: nodes %+v, want it steered away from the heavy-priced node-0", st.Nodes)
	}
	close(release)
	for _, tk := range []*frontdoor.Ticket{hTk, l1Tk, l2Tk} {
		if d := <-tk.Done(); d.Outcome != frontdoor.OutcomeAdmitted || d.Err != nil {
			t.Fatalf("disposition %+v", d)
		}
	}
	if !fd.Shutdown(5 * time.Second) {
		t.Fatal("front door drain timed out")
	}
	if !lc.Close(time.Second) {
		t.Fatal("coordinator drain timed out")
	}
}

// TestDrainingNodeUnroutable: a node that starts draining refuses its
// next query; the coordinator re-dispatches it and routes everything
// after it to the survivors. No query is lost to the drain.
func TestDrainingNodeUnroutable(t *testing.T) {
	n0 := testNode(t, "node-0", unitSleepBackend(10*time.Microsecond))
	n1 := testNode(t, "node-1", unitSleepBackend(10*time.Microsecond))
	lc, err := NewLocalCluster(Options{MaxPerNode: 2}, n0, n1)
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Drain(time.Second) {
		t.Fatal("node drain timed out")
	}
	const n = 60
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := lc.Coord.Run(testQuery("t", 1)); err != nil {
				t.Errorf("query %d failed against a cluster with a live node: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := lc.Coord.Status()
	if st.Completed != n {
		t.Fatalf("completed %d of %d", st.Completed, n)
	}
	for _, ns := range st.Nodes {
		if ns.ID == "node-1" && ns.Completed > 0 {
			t.Fatalf("draining node executed %d queries", ns.Completed)
		}
	}
	if !lc.Close(time.Second) {
		t.Fatal("coordinator drain timed out")
	}
}

// TestRPCNodeEndToEnd runs the real wire: a node mounted on an
// rpcsched server over TCP, an RPCClient dialed with retry, queries
// routed and health probed across the socket.
func TestRPCNodeEndToEnd(t *testing.T) {
	node := testNode(t, "tcp-node", unitSleepBackend(10*time.Microsecond))
	srv, err := rpcsched.NewServer(nil, rpcsched.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := MountNode(srv, node); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()

	client, err := DialNode("tcp", lis.Addr().String(), rpcsched.RetryOptions{Attempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Options{MaxPerNode: 4})
	if err := coord.AddNode(node.ID(), client); err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := coord.Run(testQuery("t", 3)); err != nil {
				t.Errorf("RPC query failed: %v", err)
			}
		}()
	}
	wg.Wait()
	hr, err := client.Health()
	if err != nil {
		t.Fatalf("health over TCP: %v", err)
	}
	if hr.ID != "tcp-node" || hr.Completed != n {
		t.Fatalf("health reply %+v, want ID=tcp-node completed=%d", hr, n)
	}
	// The node exposes nothing but ClusterNode: no remote door into its
	// serving agent that bypasses the engine's scheduler lock.
	rc, err := rpc.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var reply struct{}
	if err := rc.Call("LSched.OnEvent", struct{}{}, &reply); err == nil || !strings.Contains(err.Error(), "can't find service") {
		t.Fatalf("LSched.OnEvent on a served node: err %v, want net/rpc's can't find service", err)
	}
	st := coord.Status()
	if st.Completed != n || st.Failed != 0 {
		t.Fatalf("conservation over TCP: %+v", st)
	}
	if !coord.Close(time.Second) {
		t.Fatal("coordinator drain timed out")
	}
}

// TestRunAgainstEmptyOrClosedCluster pins the terminal errors: no
// routable node and post-shutdown submissions fail fast, counted as
// failed (conservation needs every Run to resolve).
func TestRunAgainstEmptyOrClosedCluster(t *testing.T) {
	lc, err := NewLocalCluster(Options{HeartbeatInterval: 20 * time.Millisecond},
		testNode(t, "only", unitSleepBackend(time.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	lc.Kill(0)
	// Wait for the heartbeat to notice the kill, then route: no node.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if !lc.Coord.Status().Nodes[0].Healthy {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := lc.Coord.Run(testQuery("t", 1)); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Run with all nodes down: %v, want ErrNoNodes", err)
	}
	lc.Close(time.Second)
	if _, err := lc.Coord.Run(testQuery("t", 1)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Run after Close: %v, want ErrShutdown", err)
	}
	st := lc.Coord.Status()
	if st.Failed != 2 {
		t.Fatalf("failed=%d, want 2 (both refused queries counted)", st.Failed)
	}
}
