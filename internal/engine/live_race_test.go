package engine

import (
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage"
)

// TestLiveStressInstrumentationLossless floods the live engine with
// many short queries on a multi-thread pool while fully instrumented.
// Work orders of one dispatch round execute on concurrent goroutines,
// so under `go test -race` this exercises the executor's locking and
// the metrics registry's atomics; the counters must equal the engine's
// own work-order accounting exactly (race-safe AND lossless).
func TestLiveStressInstrumentationLossless(t *testing.T) {
	cat := liveCatalog(t, "t", 1000, 125) // 8 blocks
	reg := metrics.NewRegistry()
	tr := metrics.NewTracer(1 << 16)
	lv := NewLive(cat, LiveConfig{Threads: 8, Metrics: reg, Trace: tr})

	// Many short queries arriving together keeps every dispatch round
	// full, maximizing intra-round concurrency.
	const queries = 24
	var arrivals []Arrival
	for i := 0; i < queries; i++ {
		arrivals = append(arrivals, Arrival{Plan: livePlan(4), At: 0})
	}
	res, err := lv.Run(greedyTestSched{depth: 2}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != queries {
		t.Fatalf("%d of %d queries completed", len(res.Durations), queries)
	}
	wo := int64(res.WorkOrders)
	if wo == 0 {
		t.Fatal("no work orders executed")
	}
	for _, name := range []string{
		"live_workorders_executed", // incremented inside worker goroutines
		"engine_workorders_dispatched",
		"engine_workorders_completed",
	} {
		if got := reg.Counter(name).Value(); got != wo {
			t.Fatalf("%s = %d, want %d (instrumentation lost or duplicated events)", name, got, wo)
		}
	}
	// Wall-clock histograms observed concurrently must also be lossless.
	var histTotal int64
	for name, h := range reg.Snapshot().Histograms {
		if len(name) > 20 && name[:20] == "live_wo_wall_seconds" {
			histTotal += h.Count
		}
	}
	if histTotal != wo {
		t.Fatalf("live wall-latency histograms hold %d observations, want %d", histTotal, wo)
	}
	if got := tr.Total(); got == 0 {
		t.Fatal("tracer recorded nothing")
	}
}

// TestLiveHashShareConcurrency probes the BuildHash/ProbeHash ordering
// contract directly: build and probe work orders of the same join
// hammered from concurrent goroutines, the worst interleaving the
// executor could ever see (the scheduler itself never overlaps them,
// because the build edge is pipeline-breaking). The shared hash state
// is read by the probe side; under `go test -race` this fails unless
// runProbe holds the build-side lock for the whole probe. Both the
// reference's map tables and the kernels' radix tables are covered.
func TestLiveHashShareConcurrency(t *testing.T) {
	for _, mode := range []string{"vector", "reference"} {
		t.Run(mode, func(t *testing.T) {
			gen := storage.NewGenerator(11)
			rel, err := gen.Relation("r", 1000, 250, []storage.GenSpec{
				{Column: storage.Column{Name: "key", Type: storage.Int64Col}, Cardinality: 40},
			})
			if err != nil {
				t.Fatal(err)
			}

			b := plan.NewBuilder("hash-share")
			scan := b.Add(&plan.Operator{Type: plan.TableScan, InputRelations: []string{"r"}, EstBlocks: 4})
			build := b.Add(&plan.Operator{Type: plan.BuildHash, InputRelations: []string{"r"}, EstBlocks: 4, Columns: []string{"key"}})
			b.ConnectAuto(scan, build)
			probe := b.Add(&plan.Operator{Type: plan.ProbeHash, InputRelations: []string{"r"}, EstBlocks: 4, Columns: []string{"key"}})
			b.Connect(build, probe, false)
			p := b.MustBuild()
			lv := NewLive(nil, LiveConfig{})
			var ref *refExec
			if mode == "reference" {
				ref = useReference(lv)
			}
			lr, q := testRun(lv, p)

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, blk := range rel.Blocks {
						runBlock(lr, q, build, blk)
					}
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, blk := range rel.Blocks {
						runBlock(lr, q, probe, blk)
					}
				}()
			}
			wg.Wait()

			// After every build finished, a probe must match every row.
			if rows := runBlock(lr, q, probe, rel.Blocks[0]); rows != rel.Blocks[0].NumRows() {
				t.Fatalf("post-build probe matched %d rows, want %d", rows, rel.Blocks[0].NumRows())
			}
			// 4 goroutines × 4 blocks × 250 rows each landed in the hash state.
			var total int64
			if ref != nil {
				s := ref.state(lr, q, build)
				s.mu.Lock()
				for _, c := range s.hash {
					total += int64(c)
				}
				s.mu.Unlock()
			} else {
				buildSt := lr.opState(q.ID, build.ID)
				buildSt.mu.Lock()
				total = buildSt.hash.Total()
				buildSt.mu.Unlock()
			}
			if total != 4*1000 {
				t.Fatalf("hash state holds %d entries, want %d (lost concurrent inserts)", total, 4*1000)
			}
		})
	}
}
