package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readBenchmarkJSON(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b contract
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go from
// drifting apart: same workloads, same metrics, same units, directions
// and bounds, in the same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec.go says %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w.name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound):
				t.Errorf("%s %s: bound in BENCHMARK.json differs from spec.go's %v", kind, m.name, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestReportHoldsWorkloadsToTheSpec checks the two guards that keep a
// workload's numbers and spec.go's tables from drifting: reporting under
// a name the tables do not have, and leaving a name of the requested
// table unset (neither measured nor declared notCrossed), each make the
// run incorrect.
func TestReportHoldsWorkloadsToTheSpec(t *testing.T) {
	r := newReport()
	r.set("no.such_metric", 1)
	if res := r.result(false); res.Correct || len(r.values) != 0 {
		t.Errorf("a metric name outside spec.go was accepted: %v", r.values)
	}
	for _, trace := range []bool{false, true} {
		table := endToEnd
		if trace {
			table = perLayer
		}
		r = newReport()
		for _, m := range table[1:] {
			r.set(m.name, 1)
		}
		if res := r.result(trace); res.Correct || res.Failed != 1 {
			t.Errorf("trace=%t: unset metric %s went unnoticed: failed=%d %v", trace, table[0].name, res.Failed, res.violations)
		}
		r.set(table[0].name, 1)
		r.failed, r.violations = 0, nil
		if res := r.result(trace); !res.Correct {
			t.Errorf("trace=%t: a complete report was rejected: %v", trace, res.violations)
		}
	}
}

// TestWorkloadsEmitExactlyTheSpec runs every workload for a second at
// toy size, untraced and traced, and requires a correct run — which,
// by the guards above, is one that measured every name of the table it
// was asked for and none outside spec.go — with the units
// BENCHMARK.json promises the driver.
func TestWorkloadsEmitExactlyTheSpec(t *testing.T) {
	if procs := runtime.NumCPU(); procs > maxProcs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxProcs))
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			table, mode := endToEnd, "untraced"
			if trace {
				table, mode = perLayer, "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				res, err := w.run(runConfig{workload: w.name, seed: 1, seconds: 1, trace: trace, sz: toySizing})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d violations=%v", res.Correct, res.Attempted, res.Failed, res.violations)
				}
				if len(res.Metrics) != len(table) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(table))
				}
				for _, m := range table {
					v, ok := res.Metrics[m.name]
					if !ok {
						t.Errorf("metric %s missing", m.name)
					} else if v.Unit != m.unit {
						t.Errorf("metric %s has unit %q, want %q", m.name, v.Unit, m.unit)
					} else if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, v.Value)
					}
				}
			})
		}
	}
}
