package serving

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/policystore"
	"repro/internal/workload"
)

func testArrivals(t testing.TB, n int, seed int64) []engine.Arrival {
	t.Helper()
	pool, err := workload.NewPool(workload.BenchSSB, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	return workload.Streaming(pool.Train, n, 0.5, rng)
}

func testStore(t *testing.T) *policystore.Store {
	t.Helper()
	s, err := policystore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recorder wraps a scheduler and deep-copies every decision list (the
// lsched fast path recycles the returned slice's backing array between
// events, so comparisons must copy).
type recorder struct {
	inner engine.Scheduler
	// onEvent fires after each event with its index (1-based count so
	// far), before returning the decisions.
	onEvent func(n int)
	n       int
	log     [][]engine.Decision
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) OnEvent(st *engine.State, ev engine.Event) []engine.Decision {
	ds := r.inner.OnEvent(st, ev)
	r.log = append(r.log, append([]engine.Decision(nil), ds...))
	r.n++
	if r.onEvent != nil {
		r.onEvent(r.n)
	}
	return ds
}

// greedyAgent builds an untrained, greedy LSched agent.
func greedyAgent(seed int64) *lsched.Agent {
	a := lsched.New(lsched.DefaultOptions(seed))
	a.SetGreedy(true)
	return a
}

// TestHotSwapMidStreamBitIdentical is the tentpole acceptance test: a
// Sim run hot-swaps to a different policy mid-stream, without pausing
// dispatch, and its decisions before the swap point are bit-identical
// to an unswapped run's.
func TestHotSwapMidStreamBitIdentical(t *testing.T) {
	const swapAt = 12
	arrivals := testArrivals(t, 8, 11)

	// Baseline: policy A serves the whole run.
	base := &recorder{inner: NewHotAgent(greedyAgent(1), 1)}
	simA := engine.NewSim(engine.SimConfig{Threads: 6, Seed: 11, NoiseFrac: 0.1})
	resA, err := simA.Run(base, engine.CloneArrivals(arrivals))
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Durations) != len(arrivals) {
		t.Fatalf("baseline run completed %d of %d queries", len(resA.Durations), len(arrivals))
	}

	// Swapped: identical run, but policy B is installed after event 12.
	hot := NewHotAgent(greedyAgent(1), 1)
	reg := metrics.NewRegistry()
	hot.Instrument(reg)
	swapped := &recorder{inner: hot}
	swapped.onEvent = func(n int) {
		if n == swapAt {
			hot.Install(greedyAgent(2), 2)
		}
	}
	simB := engine.NewSim(engine.SimConfig{Threads: 6, Seed: 11, NoiseFrac: 0.1})
	resB, err := simB.Run(swapped, engine.CloneArrivals(arrivals))
	if err != nil {
		t.Fatal(err)
	}

	// Dispatch never paused: the swapped run still completes everything.
	if len(resB.Durations) != len(arrivals) {
		t.Fatalf("swapped run completed %d of %d queries", len(resB.Durations), len(arrivals))
	}
	if len(base.log) < swapAt+1 || len(swapped.log) < swapAt+1 {
		t.Fatalf("too few events to compare (base %d, swapped %d); enlarge the workload", len(base.log), len(swapped.log))
	}
	// Bit-identical decisions before the swap point.
	for i := 0; i < swapAt; i++ {
		if !reflect.DeepEqual(base.log[i], swapped.log[i]) {
			t.Fatalf("pre-swap event %d diverged:\n base    %v\n swapped %v", i, base.log[i], swapped.log[i])
		}
	}
	// The swap took effect: the runs diverge somewhere after it.
	diverged := len(base.log) != len(swapped.log)
	for i := swapAt; !diverged && i < len(base.log) && i < len(swapped.log); i++ {
		diverged = !reflect.DeepEqual(base.log[i], swapped.log[i])
	}
	if !diverged {
		t.Fatal("runs identical after the swap; hot swap had no effect")
	}
	if hot.Swaps() != 1 || hot.ActiveVersion() != 2 {
		t.Fatalf("swaps=%d active=%d, want 1/2", hot.Swaps(), hot.ActiveVersion())
	}
	if got := reg.Counter("policy_swaps_total").Value(); got != 1 {
		t.Fatalf("policy_swaps_total = %d, want 1", got)
	}
}

// TestHotSwapConcurrentInstall swaps policies from a separate goroutine
// while the engine runs, under -race: the serving path must be safe
// against asynchronous installs.
func TestHotSwapConcurrentInstall(t *testing.T) {
	arrivals := testArrivals(t, 10, 13)
	hot := NewHotAgent(greedyAgent(1), 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		seed := int64(2)
		for {
			select {
			case <-stop:
				return
			default:
				hot.Install(greedyAgent(seed), int(seed))
				seed++
			}
		}
	}()
	sim := engine.NewSim(engine.SimConfig{Threads: 6, Seed: 13, NoiseFrac: 0.1})
	res, err := sim.Run(hot, engine.CloneArrivals(arrivals))
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != len(arrivals) {
		t.Fatalf("completed %d of %d under concurrent swaps", len(res.Durations), len(arrivals))
	}
	if hot.Swaps() == 0 {
		t.Fatal("no swaps happened during the run")
	}
}

func TestShadowEvaluatorAgreement(t *testing.T) {
	arrivals := testArrivals(t, 6, 17)
	cfg := EvalConfig{Arrivals: arrivals, Threads: 6, Seed: 17, NoiseFrac: 0.1}

	// Identical policies agree everywhere.
	rep, _, err := ShadowRun(heuristics.Fair{}, heuristics.Fair{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 || rep.EventAgreement != 1 || rep.DecisionAgreement != 1 {
		t.Fatalf("self-shadow agreement: %+v, want 1.0 across %d events", rep, rep.Events)
	}

	// Different policies must disagree somewhere, and shadowing must not
	// change what the active policy does (same result as unshadowed).
	rep2, score, err := ShadowRun(heuristics.Fair{}, heuristics.FIFO{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.EventAgreement >= 1 {
		t.Fatalf("Fair vs FIFO event agreement = %v, want < 1", rep2.EventAgreement)
	}
	direct, err := SimScore(heuristics.Fair{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if score != direct {
		t.Fatalf("shadowed active score %v != unshadowed %v; shadow replay perturbed the run", score, direct)
	}
}

// TestCrashRecoveryRoundTrip is the restart story: a briefly trained
// agent's checkpoint goes into the store, and a fresh process loads the
// latest version through LSchedLoader (lsched-node's path). The params
// come back byte-identical, and the greedy schedules of the trained and
// the restored agent are bit-identical.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	opts := lsched.DefaultOptions(5)
	agent := lsched.New(opts)
	cfg := lsched.DefaultTrainConfig(5)
	cfg.Episodes = 4
	cfg.SimCfg = engine.SimConfig{Threads: 6, NoiseFrac: 0.1}
	cfg.Workload = func(ep int, _ *rand.Rand) []engine.Arrival {
		return testArrivals(t, 4, 23)
	}
	if _, err := lsched.Train(agent, cfg); err != nil {
		t.Fatal(err)
	}
	params, err := agent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if initial, err := lsched.New(opts).Checkpoint(); err != nil || bytes.Equal(initial, params) {
		t.Fatalf("training left the params at their initial values (err %v)", err)
	}
	store := testStore(t)
	v, err := store.Put(policystore.PutOptions{Params: params, Source: "train"})
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh agent loads the latest stored version.
	ck, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Version != v {
		t.Fatalf("latest = v%d, want v%d", ck.Manifest.Version, v)
	}
	sched, err := LSchedLoader(opts)(ck)
	if err != nil {
		t.Fatal(err)
	}
	restored := sched.(*lsched.Agent)
	got, err := restored.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(params, got) {
		t.Fatal("restored params differ from the trained agent's")
	}

	// Determinism harness: both agents, greedy, produce bit-identical
	// schedules on the same workload.
	agent.SetGreedy(true)
	eval := testArrivals(t, 6, 29)
	s1 := engine.NewSim(engine.SimConfig{Threads: 6, Seed: 29, NoiseFrac: 0.1})
	r1, err := s1.Run(agent, engine.CloneArrivals(eval))
	if err != nil {
		t.Fatal(err)
	}
	s2 := engine.NewSim(engine.SimConfig{Threads: 6, Seed: 29, NoiseFrac: 0.1})
	r2, err := s2.Run(restored, engine.CloneArrivals(eval))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Durations, r2.Durations) || r1.Makespan != r2.Makespan {
		t.Fatalf("restored agent schedules differently:\n trained  %v (makespan %v)\n restored %v (makespan %v)",
			r1.Durations, r1.Makespan, r2.Durations, r2.Makespan)
	}
}

// TestLSchedLoaderBumpsParamsVersion pins the cache-invalidation
// contract the hot-swap path relies on: loading a checkpoint bumps the
// params version counter, which keys the encoder cache.
func TestLSchedLoaderBumpsParamsVersion(t *testing.T) {
	src := greedyAgent(3)
	params, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t)
	v, err := store.Put(policystore.PutOptions{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := store.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := LSchedLoader(lsched.DefaultOptions(3))(ck)
	if err != nil {
		t.Fatal(err)
	}
	agent := sched.(*lsched.Agent)
	if agent.Params().Version() == 0 {
		t.Fatal("Restore did not bump the params version; stale encoder-cache entries could survive a swap")
	}
}

// nopSched is the cheapest possible policy, isolating HotAgent's
// delegation overhead.
type nopSched struct{}

func (nopSched) Name() string                                          { return "nop" }
func (nopSched) OnEvent(*engine.State, engine.Event) []engine.Decision { return nil }

// BenchmarkHotSwap shows Install is O(pointer store): no locks, no
// allocation proportional to model size.
func BenchmarkHotSwap(b *testing.B) {
	hot := NewHotAgent(nopSched{}, 1)
	a, bSched := nopSched{}, nopSched{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			hot.Install(a, 1)
		} else {
			hot.Install(bSched, 2)
		}
	}
}

// BenchmarkHotAgentOnEvent shows the serving-path cost of the
// indirection: one atomic pointer load per event.
func BenchmarkHotAgentOnEvent(b *testing.B) {
	hot := NewHotAgent(nopSched{}, 1)
	st := &engine.State{}
	ev := engine.Event{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hot.OnEvent(st, ev)
	}
}
