package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/policystore"
	"repro/internal/provenance"
	"repro/internal/rpcsched"
	"repro/internal/serving"
	"repro/internal/storage"
	"repro/internal/workload"
)

// catalogSeed fixes the synthetic data: the catalog is the database the
// servers load, not part of the traffic --seed picks, and a fixed one
// lets the checked-in golden row counts gate every run.
const catalogSeed = 1

const drainTimeout = 10 * time.Second

// stackSpec sizes one serving stack.
type stackSpec struct {
	sf            float64 // SSB scale factor
	rowsPerBlock  int
	maxBlocks     int
	nodes         int // 0 = single process, else worker nodes behind a coordinator
	engineThreads int // live worker threads per engine
	maxInFlight   int // front-door executor slots
	maxPerNode    int // coordinator dispatch slots per node (cluster only)
	episodes      int // set-up training length
}

// setupCost is where one set-up's time went.
type setupCost struct {
	total   time.Duration
	train   trainStats
	put     time.Duration
	install time.Duration
}

// stack is one assembled serving stack on loopback sockets, built from
// the same public constructors cmd/lsched-frontdoor (single node) or
// cmd/lsched-cluster plus cmd/lsched-node (cluster) use.
type stack struct {
	spec    stackSpec
	url     string
	plans   []*plan.Plan
	catalog *storage.Catalog
	fd      *frontdoor.FrontDoor
	rec     *provenance.Recorder
	coord   *cluster.Coordinator
	// engineRegs holds the registry of each process-equivalent that runs
	// a live engine: one for a single node, one per worker node.
	engineRegs []*metrics.Registry
	fdReg      *metrics.Registry
	store      *policystore.Store
	version    int
	cost       setupCost

	mu     sync.Mutex
	agents []*lsched.Agent // policies installed by the loaders, for cache stats

	closers []func()
}

// close tears the stack down from the outside in (HTTP listener, front
// door, coordinator, nodes, temp store) and returns once every serve
// goroutine has ended. No request is in flight when a workload calls it.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func (s *stack) installedAgents() []*lsched.Agent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*lsched.Agent(nil), s.agents...)
}

// loader builds serving policies from checkpoints exactly as the CLIs'
// serving.LSchedLoader does, remembering each agent and, on a traced
// run, putting the scheduler wrapper inside the HotAgent's slot.
func (s *stack) loader(tr *tracer) func(ck *policystore.Checkpoint) (engine.Scheduler, error) {
	base := serving.LSchedLoader(lsched.DefaultOptions(policySeed))
	return func(ck *policystore.Checkpoint) (engine.Scheduler, error) {
		sched, err := base(ck)
		if err != nil {
			return nil, err
		}
		if agent, ok := sched.(*lsched.Agent); ok {
			s.mu.Lock()
			s.agents = append(s.agents, agent)
			s.mu.Unlock()
		}
		if tr != nil {
			sched = tracedScheduler{t: tr, inner: sched}
		}
		return sched, nil
	}
}

// enginePool is the node-local half every stack has: catalog-backed
// live engine, hot policy slot, plan pool over the engine backend.
func (s *stack) enginePool(tr *tracer, reg *metrics.Registry, outer uint8) (frontdoor.Backend, *serving.HotAgent, error) {
	live := engine.NewLive(s.catalog, engine.LiveConfig{Threads: s.spec.engineThreads, Metrics: reg})
	if err := live.Validate(s.plans); err != nil {
		return nil, nil, err
	}
	hot := serving.NewHotAgent(heuristics.Fair{}, 0)
	hot.Instrument(reg)
	var eb frontdoor.Backend = frontdoor.NewEngineBackend(live, hot)
	if tr != nil {
		eb = tracedBackend{t: tr, layer: layerEngine, next: eb}
	}
	var pool frontdoor.Backend
	pool, err := frontdoor.NewPlanPool(eb, s.plans)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		pool = tracedBackend{t: tr, layer: outer, next: pool}
	}
	return pool, hot, nil
}

// ssbCatalog generates the SSB plans at the spec's scale factor and the
// synthetic data they scan.
func ssbCatalog(spec stackSpec) ([]*plan.Plan, *storage.Catalog, error) {
	plans := workload.SSB(spec.sf)
	catalog, err := workload.SyntheticCatalog(plans, spec.rowsPerBlock, spec.maxBlocks, catalogSeed)
	return plans, catalog, err
}

// buildStack performs one complete set-up: generate the catalog, train
// the fixed small policy, publish and promote it in a temp policystore,
// assemble the stack on loopback listeners and install the policy
// through the serving path. All of it is setup_s.
func buildStack(spec stackSpec, tr *tracer) (*stack, error) {
	start := time.Now()
	s := &stack{spec: spec}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	var err error
	s.plans, s.catalog, err = ssbCatalog(spec)
	if err != nil {
		return nil, err
	}
	agent, train, err := trainPolicy(s.plans, spec.episodes, 1)
	if err != nil {
		return nil, err
	}
	s.cost.train = train
	dir, err := os.MkdirTemp("", "lsched-bench-store-")
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { os.RemoveAll(dir) })
	s.store, s.version, s.cost.put, err = publishPolicy(agent, dir, train)
	if err != nil {
		return nil, err
	}

	s.fdReg = metrics.NewRegistry()
	var backend frontdoor.Backend
	if spec.nodes == 0 {
		backend, err = s.buildSingle(tr)
	} else {
		backend, err = s.buildCluster(tr)
	}
	if err != nil {
		return nil, err
	}

	// Flight recorder, drift detector and SLO tracker as
	// cmd/lsched-frontdoor attaches them.
	s.rec = provenance.NewRecorder(provenance.Options{})
	s.rec.Instrument(s.fdReg)
	s.rec.SetFeatureNames(provenance.KindAdmit, lsched.AdmissionFeatureNames())
	drift := provenance.NewDriftDetector(provenance.DriftConfig{
		Names:      lsched.AdmissionFeatureNames(),
		RefSamples: 512,
	})
	drift.Instrument(s.fdReg)
	s.rec.SetDrift(provenance.KindAdmit, drift)
	slo := provenance.NewSLOTracker(provenance.SLOConfig{})
	slo.Instrument(s.fdReg)

	s.fd, err = frontdoor.New(frontdoor.Options{
		Backend:     backend,
		Controller:  frontdoor.NewLearned(lsched.NewAdmissionHead(nn.NewParams(policySeed))),
		MaxInFlight: spec.maxInFlight,
		Metrics:     s.fdReg,
		Provenance:  s.rec,
		SLO:         slo,
	})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { s.fd.Shutdown(drainTimeout) })

	var handler http.Handler = s.fd.Handler()
	if tr != nil {
		handler = tracedHandler{t: tr, next: handler}
	}
	mux := http.NewServeMux()
	mux.Handle("/query", handler)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(lis) //nolint:errcheck // always ErrServerClosed after Close below
	}()
	// Registered after the front door's closer, so it runs first: stop
	// taking requests, then drain.
	s.closers = append(s.closers, func() { srv.Close(); <-served })
	s.url = "http://" + lis.Addr().String() + "/query"

	s.cost.total = time.Since(start)
	ok = true
	return s, nil
}

// buildSingle assembles cmd/lsched-frontdoor's backend and installs the
// promoted checkpoint into its HotAgent.
func (s *stack) buildSingle(tr *tracer) (frontdoor.Backend, error) {
	s.engineRegs = []*metrics.Registry{s.fdReg}
	pool, hot, err := s.enginePool(tr, s.fdReg, layerBackend)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ck, err := s.store.Get(s.version)
	if err != nil {
		return nil, err
	}
	sched, err := s.loader(tr)(ck)
	if err != nil {
		return nil, err
	}
	hot.Install(sched, s.version)
	s.cost.install = time.Since(start)
	return pool, nil
}

// buildCluster starts spec.nodes workers as cmd/lsched-node does, each
// behind its own rpcsched server on 127.0.0.1:0, dials them as
// cmd/lsched-cluster does, and rolls the promoted checkpoint out with
// Coordinator.SyncPolicy.
func (s *stack) buildCluster(tr *tracer) (frontdoor.Backend, error) {
	policy, err := cluster.PolicyByName("least-loaded")
	if err != nil {
		return nil, err
	}
	s.coord = cluster.New(cluster.Options{Policy: policy, MaxPerNode: s.spec.maxPerNode, Metrics: s.fdReg})
	for i := 0; i < s.spec.nodes; i++ {
		reg := metrics.NewRegistry()
		s.engineRegs = append(s.engineRegs, reg)
		pool, hot, err := s.enginePool(tr, reg, layerNode)
		if err != nil {
			return nil, err
		}
		rec := provenance.NewRecorder(provenance.Options{})
		rec.Instrument(reg)
		node, err := cluster.NewNode(cluster.NodeOptions{
			ID:         fmt.Sprintf("node-%d", i),
			Backend:    pool,
			Hot:        hot,
			Loader:     s.loader(tr),
			Provenance: rec,
			Metrics:    reg,
		})
		if err != nil {
			return nil, err
		}
		srv, err := rpcsched.NewServer(hot, rpcsched.ServerOptions{IOTimeout: 30 * time.Second})
		if err != nil {
			return nil, err
		}
		if err := cluster.MountNode(srv, node); err != nil {
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(lis) //nolint:errcheck // returns once Shutdown closes the listener
		}()
		s.closers = append(s.closers, func() {
			node.Drain(drainTimeout)
			srv.Shutdown(drainTimeout) //nolint:errcheck // best effort at tear-down
			<-served
		})
		rpc, err := cluster.DialNode("tcp", lis.Addr().String(), rpcsched.RetryOptions{Attempts: 10})
		if err != nil {
			return nil, err
		}
		var client cluster.NodeClient = rpc
		if tr != nil {
			client = &tracedNodeClient{NodeClient: rpc, t: tr}
		}
		if err := s.coord.AddNode(node.ID(), client); err != nil {
			return nil, err
		}
	}
	if err := s.coord.Start(); err != nil {
		return nil, err
	}
	// Runs before the nodes' closers (reverse order): the coordinator
	// drains its dispatched calls while the nodes still serve.
	s.closers = append(s.closers, func() { s.coord.Close(drainTimeout) })

	start := time.Now()
	if err := s.coord.SyncPolicy(s.store); err != nil {
		return nil, fmt.Errorf("roll out policy: %w", err)
	}
	s.cost.install = time.Since(start)
	if got := len(s.installedAgents()); got != s.spec.nodes {
		return nil, errors.New("roll out policy: not every node installed the checkpoint")
	}
	var backend frontdoor.Backend = s.coord
	if tr != nil {
		backend = tracedBackend{t: tr, layer: layerBackend, next: backend}
	}
	return backend, nil
}
