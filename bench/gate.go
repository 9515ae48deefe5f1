package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/heuristics"
	"repro/internal/plan"
	"repro/internal/storage"
)

const goldenPath = "testdata/golden_rows.json"

// sinkRows runs each plan alone on the live engine and returns the row
// count its sink produced.
func sinkRows(live *engine.Live, sched engine.Scheduler, plans []*plan.Plan) ([]int, error) {
	rows := make([]int, len(plans))
	for i, p := range plans {
		res, err := live.RunOne(sched, p)
		if err != nil {
			return nil, fmt.Errorf("run %s under %s: %w", p.QueryName, sched.Name(), err)
		}
		for _, n := range res.OutputRows {
			rows[i] += n
		}
	}
	return rows, nil
}

// gateRows is the correctness gate run before anything is timed: every
// plan must produce the same sink row count under the benchmarked
// policy as under heuristics.Fair (want, from referenceRows), and both
// must equal the checked-in
// golden counts for this catalog (golden "" skips that half: toy
// catalogs have none). Scheduling must never change results.
//
// The gate runs on a one-thread engine. With more threads the engine's
// row counts depend on work-order completion order (a consumer with
// fewer work orders than its producer reads whichever of the producer's
// blocks were appended first), so a plan intermittently reports 0 rows
// under any scheduler; README.md records that as a known behaviour and
// engine.rows_mismatch_frac measures it.
func gateRows(golden string, catalog *storage.Catalog, plans []*plan.Plan, policy engine.Scheduler, want []int) (violations []string, err error) {
	got, err := sinkRows(engine.NewLive(catalog, engine.LiveConfig{Threads: 1}), policy, plans)
	if err != nil {
		return nil, err
	}
	for i, p := range plans {
		if got[i] != want[i] {
			violations = append(violations, fmt.Sprintf("gate: %s produced %d rows under %s, %d under Fair", p.QueryName, got[i], policy.Name(), want[i]))
		}
	}
	if golden == "" {
		return violations, nil
	}
	stored, err := readGolden()
	if err != nil {
		return nil, err
	}
	if ref, ok := stored[golden]; ok {
		if len(ref) != len(want) {
			violations = append(violations, fmt.Sprintf("gate: golden %s lists %d plans, workload has %d", golden, len(ref), len(want)))
		} else {
			for i, p := range plans {
				if want[i] != ref[i] {
					violations = append(violations, fmt.Sprintf("gate: %s produced %d rows, golden says %d", p.QueryName, want[i], ref[i]))
				}
			}
		}
	} else {
		violations = append(violations, fmt.Sprintf("gate: no golden row counts for %s in %s", golden, goldenPath))
	}
	return violations, nil
}

// rowsMismatchFrac re-runs every plan reps times on an engine with the
// workload's own thread count and returns the share of runs whose sink
// row count differs from the one-thread reference.
func rowsMismatchFrac(catalog *storage.Catalog, plans []*plan.Plan, policy engine.Scheduler, threads, reps int, want []int) (float64, error) {
	live := engine.NewLive(catalog, engine.LiveConfig{Threads: threads})
	bad := 0
	for r := 0; r < reps; r++ {
		got, err := sinkRows(live, policy, plans)
		if err != nil {
			return 0, err
		}
		for i := range got {
			if got[i] != want[i] {
				bad++
			}
		}
	}
	return ratio(float64(bad), float64(reps*len(plans))), nil
}

// concurrentFailFrac measures known behaviour 2 of README.md: clients
// goroutines at once run every plan reps times behind one EngineBackend
// and one policy, which is the CLIs' assembly with more than one executor
// slot, and the share of runs that failed is returned. The serving
// workloads cannot offer that concurrency (a benchmark needs workloads
// on which nothing fails); this keeps its cost on record until the
// defect is fixed and they can. The defect is a data race, so the race
// detector reports this function.
func concurrentFailFrac(catalog *storage.Catalog, plans []*plan.Plan, policy engine.Scheduler, threads, clients, reps int) float64 {
	backend := frontdoor.NewEngineBackend(engine.NewLive(catalog, engine.LiveConfig{Threads: threads}), policy)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < reps*len(plans); i++ {
				if _, err := backend.Run(&frontdoor.Query{Payload: plans[(c+i)%len(plans)]}); err != nil {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return ratio(float64(failed.Load()), float64(clients*reps*len(plans)))
}

func readGolden() (map[string][]int, error) {
	data, err := os.ReadFile(goldenPath)
	if errors.Is(err, os.ErrNotExist) {
		return map[string][]int{}, nil
	}
	if err != nil {
		return nil, err
	}
	var m map[string][]int
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return m, nil
}

// referenceRows is the gate's reference: every plan's sink row count
// under heuristics.Fair on a one-thread engine.
func referenceRows(catalog *storage.Catalog, plans []*plan.Plan) ([]int, error) {
	return sinkRows(engine.NewLive(catalog, engine.LiveConfig{Threads: 1}), heuristics.Fair{}, plans)
}

// writeGoldenFor records the reference row counts of plans over catalog
// as the golden reference under name.
func writeGoldenFor(name string, catalog *storage.Catalog, plans []*plan.Plan) error {
	rows, err := referenceRows(catalog, plans)
	if err != nil {
		return err
	}
	return writeGolden(name, rows)
}

// writeGolden stores one catalog's reference row counts, keeping the
// others.
func writeGolden(name string, rows []int) error {
	m, err := readGolden()
	if err != nil {
		return err
	}
	m[name] = rows
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range names {
		row, err := json.Marshal(m[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, "  %q: %s", k, row)
		if i < len(names)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, buf.Bytes(), 0o644)
}
