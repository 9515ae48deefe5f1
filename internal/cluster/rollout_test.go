package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/heuristics"
	"repro/internal/policystore"
	"repro/internal/serving"
)

// policyNode builds a node with a hot policy slot whose loader fails
// for the versions listed in badVersions — the corrupt-checkpoint
// stand-in for the rollback test.
func policyNode(t *testing.T, id string, badVersions ...int) *Node {
	t.Helper()
	hot := serving.NewHotAgent(heuristics.FIFO{}, 0)
	loader := func(ck *policystore.Checkpoint) (engine.Scheduler, error) {
		for _, v := range badVersions {
			if ck.Manifest.Version == v {
				return nil, fmt.Errorf("params blob rejected")
			}
		}
		return heuristics.FIFO{}, nil
	}
	n, err := NewNode(NodeOptions{
		ID:      id,
		Backend: frontdoor.BackendFunc(func(q *frontdoor.Query) (*frontdoor.Result, error) { return nil, nil }),
		Hot:     hot,
		Loader:  loader,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRolloutConvergesAndRollsBack drives the centralized rollout
// protocol: promoting v1 converges every node; promoting a version one
// node cannot load reports a partial rollout, leaves that node on its
// previous policy (per-node rollback), and does not disturb the nodes
// that installed it.
func TestRolloutConvergesAndRollsBack(t *testing.T) {
	store, err := policystore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{
		policyNode(t, "node-0"),
		policyNode(t, "node-1", 2), // v2's params are poison for this node
		policyNode(t, "node-2"),
	}
	lc, err := NewLocalCluster(Options{HeartbeatInterval: 20 * time.Millisecond}, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close(time.Second)

	// No CURRENT pointer yet: sync is a no-op.
	if err := lc.Coord.SyncPolicy(store); err != nil {
		t.Fatalf("sync against an empty store: %v", err)
	}

	v1, err := store.Put(policystore.PutOptions{Params: []byte("params-v1"), Source: "train"})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Promote(v1); err != nil {
		t.Fatal(err)
	}
	if err := lc.Coord.SyncPolicy(store); err != nil {
		t.Fatalf("v1 rollout: %v", err)
	}
	for _, n := range nodes {
		if got := n.PolicyVersion(); got != v1 {
			t.Fatalf("node %s serves v%d after rollout, want v%d", n.ID(), got, v1)
		}
	}
	// Every live node reports the new version through cluster status
	// (the install path updates it; heartbeats keep it fresh).
	for _, ns := range lc.Coord.Status().Nodes {
		if ns.PolicyVersion != v1 {
			t.Fatalf("status shows node %s on v%d, want v%d", ns.ID, ns.PolicyVersion, v1)
		}
	}

	v2, err := store.Put(policystore.PutOptions{Params: []byte("params-v2"), Source: "train", Parent: v1})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Promote(v2); err != nil {
		t.Fatal(err)
	}
	err = lc.Coord.SyncPolicy(store)
	var partial *PartialRolloutError
	if !errors.As(err, &partial) {
		t.Fatalf("v2 rollout returned %v, want PartialRolloutError", err)
	}
	if partial.Version != v2 || len(partial.Failed) != 1 {
		t.Fatalf("partial rollout %+v, want exactly node-1 failed at v%d", partial, v2)
	}
	if _, ok := partial.Failed["node-1"]; !ok {
		t.Fatalf("partial rollout blames %v, want node-1", partial.Failed)
	}
	// The failed node rolled back (kept v1); the others converged.
	if got := nodes[1].PolicyVersion(); got != v1 {
		t.Fatalf("failed node serves v%d, want rollback to v%d", got, v1)
	}
	for _, i := range []int{0, 2} {
		if got := nodes[i].PolicyVersion(); got != v2 {
			t.Fatalf("node %s serves v%d, want v%d", nodes[i].ID(), got, v2)
		}
	}

	// The retry loop re-pushes only the divergent node: heal the
	// store with a v3 everyone accepts and watch it converge.
	v3, err := store.Put(policystore.PutOptions{Params: []byte("params-v3"), Source: "train", Parent: v2})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Promote(v3); err != nil {
		t.Fatal(err)
	}
	stop := lc.Coord.WatchPolicy(store, 10*time.Millisecond, nil)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		all := true
		for _, n := range nodes {
			if n.PolicyVersion() != v3 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged on v%d: %v %v %v", v3,
				nodes[0].PolicyVersion(), nodes[1].PolicyVersion(), nodes[2].PolicyVersion())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestInstallWithoutPolicySlot pins the error for nodes without a hot
// agent — rollout against a heterogeneous fleet reports them instead
// of crashing.
func TestInstallWithoutPolicySlot(t *testing.T) {
	n := testNode(t, "bare", frontdoor.BackendFunc(func(q *frontdoor.Query) (*frontdoor.Result, error) { return nil, nil }))
	if err := n.Install(1, []byte("p")); err == nil {
		t.Fatal("install on a node without a policy slot succeeded")
	}
}
