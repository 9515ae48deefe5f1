// Command bench is the repository's benchmark: four end-to-end
// workloads from HTTP ingress to work orders, and a per-layer budget
// timed from outside through the stack's public interfaces.
//
// One workload, one run — the form the driver in BENCHMARK.json uses;
// the last line of standard output is the run's JSON result:
//
//	bench --workload serve_heavy --seed 1 --seconds 20 --trace 0
//
// Every workload, each run in a child process of its own, medians over
// -runs, one line appended to history.jsonl:
//
//	bench [-runs 5] [-seed 1] [-seconds 20] [-traced] [-repeat-check]
//
// Run it through run.sh, which builds it with every cache inside the
// checkout. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// maxProcs caps GOMAXPROCS so the sizing (clients, engine threads,
// executor slots) means the same on any recording host with 4+ cores.
const maxProcs = 4

func main() {
	workload := flag.String("workload", "", "run this one workload in this process and print its JSON result (driver mode)")
	seed := flag.Int64("seed", 1, "traffic seed: tenants, classes, plan order, arrival jitter")
	seconds := flag.Float64("seconds", runSeconds, "timed length of one run")
	trace := flag.Int("trace", 0, "driver mode: 1 interposes the wrappers and prints the per-layer metrics instead")
	runs := flag.Int("runs", 5, "runs per workload; their median, min and max are reported")
	traced := flag.Bool("traced", false, "also run each workload once traced and print the per-layer metrics")
	repeatCheck := flag.Bool("repeat-check", false, "run two full sets and fail if their medians differ by more than a metric's bound")
	printContract := flag.Bool("benchmark-json", false, "print BENCHMARK.json as spec.go defines it and exit")
	updateGolden := flag.Bool("update-golden", false, "rewrite testdata/golden_rows.json from one-thread heuristics.Fair runs and exit")
	flag.Parse()

	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case *printContract:
		err = printBenchmarkJSON()
	case *updateGolden:
		err = updateGoldenRows()
	case *workload != "":
		err = runOne(runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizing})
	default:
		err = orchestrate(orchestration{
			seed: *seed, seconds: *seconds, runs: *runs,
			traced: *traced, repeatCheck: *repeatCheck,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is driver mode: one workload in this process. A run that could
// not be carried out prints no result and exits non-zero; a run that
// finished but broke an invariant prints its result with correct=false
// and also exits non-zero.
func runOne(cfg runConfig) error {
	spec := workloadByName(cfg.workload)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds %g: need at least 1", cfg.seconds)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d numcpu=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	res, err := spec.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "bench: violation:", v)
	}
	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	for _, m := range table {
		fmt.Printf("%s %v %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the correctness checks", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}

// updateGoldenRows regenerates the reference row counts of the three
// catalogs the workloads use.
func updateGoldenRows() error {
	for _, w := range []struct {
		name string
		spec stackSpec
	}{
		{"ssb_heavy", fullSizing.heavy},
		{"ssb_light", fullSizing.light},
	} {
		plans, catalog, err := ssbCatalog(w.spec)
		if err != nil {
			return err
		}
		if err := writeGoldenFor(w.name, catalog, plans); err != nil {
			return err
		}
	}
	off, err := buildOffline(fullSizing, 1)
	if err != nil {
		return err
	}
	return writeGolden("tpch_offline", off.want)
}

// printBenchmarkJSON writes the driver's contract from the tables in
// spec.go, so the two cannot disagree:
//
//	./run.sh -benchmark-json > ../BENCHMARK.json
func printBenchmarkJSON() error {
	c := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.name, w.why})
	}
	for i := range endToEnd {
		m := &endToEnd[i]
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{m.name, m.unit, m.better, nil})
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
