// Command lsched-bench regenerates the paper's tables and figures on
// the simulator substrate and prints them as text tables.
//
// Usage:
//
//	lsched-bench -fig 8              # one figure at quick scale
//	lsched-bench -fig all -scale paper
//	lsched-bench -fig 8 -metrics     # JSON metrics+trace snapshot at exit
//	lsched-bench -fig 8 -metrics -metrics-format text
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
	withMetrics := flag.Bool("metrics", false, "instrument evaluation runs and print a metrics+trace snapshot at exit")
	metricsFormat := flag.String("metrics-format", "json", "snapshot format: json or text")
	traceCap := flag.Int("trace-cap", metrics.DefaultTraceCapacity, "trace ring-buffer capacity (last N events retained)")
	listen := flag.String("listen", "", "serve live observability endpoints (/metrics, /metrics.json, /trace, /queries, /timeseries, /debug/pprof/) on this address during the run, e.g. :9090")
	traceOut := flag.String("trace-out", "", "write the trace as Chrome trace-event JSON to this file at exit (load in Perfetto / chrome://tracing)")
	timeseriesOut := flag.String("timeseries-out", "", "write the wall-clock sampler's time series JSON to this file at exit")
	storeDir := flag.String("store", "", "policy store directory (with -policy)")
	policy := flag.String("policy", "", "evaluate this stored policy version (a number or \"latest\") as the LSched agent instead of training one; requires -store")
	provOut := flag.String("provenance-out", "", "record evaluation-run scheduling decisions (features, scores, joined outcomes) to this trace file")
	flag.Parse()
	if *metricsFormat != "json" && *metricsFormat != "text" {
		fmt.Fprintf(os.Stderr, "unknown metrics format %q (json or text)\n", *metricsFormat)
		os.Exit(2)
	}

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
	if *withMetrics || *listen != "" || *traceOut != "" || *timeseriesOut != "" {
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
	var sampler *obs.Sampler
	if *listen != "" {
		srv = obs.NewServer(obs.Options{Metrics: lab.Metrics, Trace: lab.Trace})
		addr, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sampler = srv.Sampler()
		fmt.Fprintf(os.Stderr, "observability: serving http://%s/ (metrics, trace, queries, timeseries, pprof)\n", addr)
	} else if *timeseriesOut != "" {
		// Sample without serving, so the dump works headless.
		sampler = obs.NewSampler(lab.Metrics, 0, 0)
		sampler.Start()
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
	if *timeseriesOut != "" {
		sampler.Poll() // capture the final state before dumping
		if err := sampler.WriteFile(*timeseriesOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observability: wrote time series to %s\n", *timeseriesOut)
	}
	if srv != nil {
		srv.Close()
	} else if sampler != nil {
		sampler.Stop()
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, lab.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
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
		if err := printExport(lab.Metrics, lab.Trace, *metricsFormat); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
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

// writeChromeTrace exports the trace ring as a Chrome trace-event file.
func writeChromeTrace(path string, tr *metrics.Tracer) error {
	events := tr.Events()
	data, err := obs.ChromeTraceJSON(events)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "observability: wrote %d trace events to %s (open in Perfetto)\n", len(events), path)
	return nil
}

// printExport dumps the run's metrics and trace in the chosen format
// (main has already rejected anything but json and text).
func printExport(reg *metrics.Registry, tr *metrics.Tracer, format string) error {
	exp := metrics.NewExport(reg, tr)
	switch format {
	case "json":
		data, err := exp.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	case "text":
		fmt.Print(exp.Text())
	}
	return nil
}
