// Command lsched-bench regenerates the paper's tables and figures on
// the simulator substrate and prints them as text tables.
//
// Usage:
//
//	lsched-bench -fig 8              # one figure at quick scale
//	lsched-bench -fig all -scale paper
//	lsched-bench -fig 8 -metrics     # Prometheus text of the registry at exit
//	lsched-bench -fig all -listen :9090         # watch the run live
//	lsched-bench -fig 8 -trace-out fig8.trace   # Perfetto span export
//	lsched-bench -fig 8 -store ./policies -policy latest   # eval a stored policy
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policystore"
	"repro/internal/provenance"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (1, 8, 9, 10, 11, 12, 13, 14, 15, or all)")
	scale := flag.String("scale", "quick", "experiment scale: quick or paper")
	seed := flag.Int64("seed", 1, "experiment seed")
	rollouts := flag.Int("rollouts", 1, "training episodes collected concurrently per policy update (1 = sequential)")
	withMetrics := flag.Bool("metrics", false, "instrument evaluation runs and print the registry as Prometheus text at exit")
	traceCap := flag.Int("trace-cap", metrics.DefaultTraceCapacity, "trace ring-buffer capacity (last N events retained)")
	listen := flag.String("listen", "", "serve live observability endpoints (/metrics, /trace.chrome, /debug/pprof/, ...) on this address during the run, e.g. :9090")
	traceOut := flag.String("trace-out", "", "write the trace as Chrome trace-event JSON to this file at exit (load in Perfetto / chrome://tracing)")
	storeDir := flag.String("store", "", "policy store directory (with -policy)")
	policy := flag.String("policy", "", "evaluate this stored policy version (a number or \"latest\") as the LSched agent instead of training one; requires -store")
	provOut := flag.String("provenance-out", "", "record evaluation-run scheduling decisions (features, scores, joined outcomes) to this trace file")
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (quick or paper)\n", *scale)
		os.Exit(2)
	}
	sc.Rollouts = *rollouts
	lab := experiments.NewLab(sc, *seed)
	if *withMetrics || *listen != "" || *traceOut != "" {
		lab.Metrics = metrics.NewRegistry()
		lab.Trace = metrics.NewTracer(*traceCap)
		// A live observer wants the long training phases visible too,
		// not just the evaluation runs.
		lab.WatchTraining = *listen != ""
	}
	var provFile *os.File
	if *provOut != "" {
		f, err := os.Create(*provOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		provFile = f
		lab.Provenance = provenance.NewRecorder(provenance.Options{})
		lab.Provenance.Instrument(lab.Metrics) // no-op when -metrics/-listen are off
		lab.Provenance.AttachSink(f, 256)
	}
	var srv *obs.Server
	if *listen != "" {
		srv = obs.NewServer(obs.Options{Metrics: lab.Metrics, Trace: lab.Trace})
		addr, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observability: serving http://%s/\n", addr)
	}

	if *policy != "" {
		if err := installStoredPolicy(lab, *storeDir, *policy, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = experiments.Figures()
	}
	for _, f := range figs {
		start := time.Now()
		tables, err := experiments.Run(lab, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("-- figure %s regenerated in %v --\n\n", f, time.Since(start).Round(time.Millisecond))
	}
	if srv != nil {
		srv.Close()
	}
	if *traceOut != "" {
		if err := obs.WriteChromeTrace(*traceOut, lab.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observability: wrote trace to %s (open in Perfetto)\n", *traceOut)
	}
	if provFile != nil {
		if err := lab.Provenance.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := provFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ps := lab.Provenance.Stats()
		fmt.Fprintf(os.Stderr, "provenance: recorded %d decisions (%d joined) to %s\n",
			ps.Recorded, ps.Joined, *provOut)
	}
	if *withMetrics {
		obs.WritePrometheus(os.Stdout, lab.Metrics.Snapshot())
	}
}

// installStoredPolicy restores a policy-store checkpoint and installs
// it as the lab's LSched agent for every benchmark, so the figure
// regenerators evaluate the stored policy instead of training one.
func installStoredPolicy(lab *experiments.Lab, storeDir, version string, seed int64) error {
	if storeDir == "" {
		return fmt.Errorf("-policy requires -store")
	}
	store, err := policystore.Open(storeDir)
	if err != nil {
		return err
	}
	var ck *policystore.Checkpoint
	if version == "latest" {
		ck, err = store.Latest()
	} else {
		var v int
		v, err = strconv.Atoi(version)
		if err != nil {
			return fmt.Errorf("-policy wants a version number or \"latest\", got %q", version)
		}
		ck, err = store.Get(v)
	}
	if err != nil {
		return err
	}
	for _, b := range []workload.Benchmark{workload.BenchTPCH, workload.BenchSSB, workload.BenchJOB} {
		agent := lsched.New(lsched.DefaultOptions(seed))
		if err := agent.Restore(ck.Params); err != nil {
			return fmt.Errorf("restore policy v%d: %w", ck.Manifest.Version, err)
		}
		agent.SetGreedy(true)
		lab.UseAgent(b, agent)
	}
	fmt.Fprintf(os.Stderr, "policy store: evaluating v%d from %s (source %q)\n",
		ck.Manifest.Version, storeDir, ck.Manifest.Source)
	return nil
}
