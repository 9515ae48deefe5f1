package frontdoor

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/lsched"
	"repro/internal/plan"
	"repro/internal/serving"
	"repro/internal/workload"
)

// TestConcurrentRunsBehindOneAgent: 2·GOMAXPROCS executor goroutines
// share one EngineBackend over one greedy LSched agent in a hot slot —
// the serving binaries' assembly with more than one executor slot. The
// agent returns its reused decision scratch, so this holds only while
// the engine applies each OnEvent's decisions before any other run's
// OnEvent (the engine.Scheduler contract): no run may stall on another
// run's decisions, and every sink row count must equal the serial
// run's. Runs under the race detector in scripts/check.sh.
func TestConcurrentRunsBehindOneAgent(t *testing.T) {
	plans := workload.SSB(0.1)
	catalog, err := workload.SyntheticCatalog(plans, 2048, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	agent := lsched.New(lsched.DefaultOptions(1))
	agent.SetGreedy(true)
	be := NewEngineBackend(engine.NewLive(catalog, engine.LiveConfig{Threads: 1}), serving.NewHotAgent(agent, 0))

	// rows is what Run executes, keeping the sink row count its Result
	// drops.
	rows := func(p *plan.Plan) (int, error) {
		res, err := be.live.RunOne(be.sched, p)
		if err != nil {
			return 0, err
		}
		return res.OutputRows[0], nil
	}
	serial := make([]int, len(plans))
	for i, p := range plans {
		if serial[i], err = rows(p); err != nil {
			t.Fatalf("serial run of %s: %v", p.QueryName, err)
		}
	}

	const reps = 5
	var wg sync.WaitGroup
	for c := 0; c < 2*runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < reps*len(plans); i++ {
				k := (c + i) % len(plans)
				if i%2 == 0 {
					if _, err := be.Run(&Query{Payload: plans[k]}); err != nil {
						t.Errorf("client %d, %s through Run: %v", c, plans[k].QueryName, err)
					}
					continue
				}
				got, err := rows(plans[k])
				if err != nil {
					t.Errorf("client %d, %s: %v", c, plans[k].QueryName, err)
				} else if got != serial[k] {
					t.Errorf("client %d, %s: %d output rows, serial run had %d", c, plans[k].QueryName, got, serial[k])
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPlanPoolSharesTemplates: the pool hands the selected template to
// its backend without copying or locking, so concurrent Runs must leave
// every template structurally untouched while backends clone from them
// (as Live.RunOne does) at the same time.
func TestPlanPoolSharesTemplates(t *testing.T) {
	plans := workload.SSB(0.1)
	isTemplate := make(map[*plan.Plan]bool, len(plans))
	before := make([]string, len(plans))
	for i, p := range plans {
		isTemplate[p] = true
		before[i] = p.String()
	}
	inner := BackendFunc(func(q *Query) (*Result, error) {
		p, _ := q.Payload.(*plan.Plan)
		if !isTemplate[p] {
			t.Errorf("payload %p is not one of the pool's templates", p)
			return nil, nil
		}
		if c := p.Clone(); c.String() != p.String() {
			t.Errorf("clone of %s differs from its template", p.QueryName)
		}
		return nil, nil
	})
	pool, err := NewPlanPool(inner, plans)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				req := Request{Tenant: "t", Ops: SummarizePlan(plans[(g+i)%len(plans)])}
				q, err := req.Validate()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := pool.Run(q); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	for i, p := range plans {
		if p.String() != before[i] {
			t.Errorf("template %s changed under concurrent Run", p.QueryName)
		}
	}
}
