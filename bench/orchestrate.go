package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

const historyPath = "history.jsonl"

type orchestration struct {
	seed        int64
	seconds     float64
	runs        int
	traced      bool
	repeatCheck bool
}

// summary is one metric over the runs of a set.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

// historyLine is what every orchestrated invocation appends to
// history.jsonl: where the numbers came from, then the numbers.
type historyLine struct {
	Time   string `json:"time"`
	GitSHA string `json:"git_sha"`
	// BenchSHA256 is the hash of the benchmark binary that produced the
	// numbers. run.sh builds it with -trimpath and without VCS stamping,
	// so the same sources and Go version hash the same in any checkout:
	// rebuild a commit and compare to tie a line to its code.
	BenchSHA256 string  `json:"bench_sha256"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Runs        int     `json:"runs"`
	// EndToEnd[workload][metric]; one entry per set, two under -repeat-check.
	EndToEnd []map[string]map[string]summary `json:"end_to_end"`
	// PerLayer[workload][metric] from the single traced run, with -traced.
	PerLayer map[string]map[string]summary `json:"per_layer,omitempty"`
	Correct  bool                          `json:"correct"`
}

// runChild runs one workload once in a child process of its own and
// parses the result from the last line it prints.
func runChild(self, workload string, seed int64, seconds float64, trace int) (*runResult, error) {
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	return &res, nil
}

func summarize(results []*runResult, table []metricSpec) map[string]summary {
	out := make(map[string]summary, len(table))
	for _, m := range table {
		var xs []float64
		for _, r := range results {
			xs = append(xs, r.Metrics[m.name].Value)
		}
		lo, hi := minMax(xs)
		out[m.name] = summary{Median: median(xs), Min: lo, Max: hi, Unit: m.unit}
	}
	return out
}

// worseBy is how much worse b is than a as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func orchestrate(o orchestration) error {
	if o.runs < 1 {
		return fmt.Errorf("-runs %d: need at least 1", o.runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	binary, err := os.ReadFile(self)
	if err != nil {
		return err
	}
	line := historyLine{
		Time:        time.Now().UTC().Format(time.RFC3339),
		GitSHA:      gitSHA(),
		BenchSHA256: fmt.Sprintf("%x", sha256.Sum256(binary)),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        o.seed,
		Seconds:     o.seconds,
		Runs:        o.runs,
		Correct:     true,
	}
	fmt.Printf("git=%s bench=%.12s %s numcpu=%d gomaxprocs=%d seed=%d seconds=%g runs=%d\n",
		line.GitSHA, line.BenchSHA256, line.GoVersion, line.NumCPU, line.GOMAXPROCS, o.seed, o.seconds, o.runs)

	// Under -repeat-check the two sets are interleaved run by run, the
	// way a driver alternates parent and change, so that the host's slow
	// drift (README.md, "Noise") lands on both sets alike; which set goes
	// first alternates too.
	sets := 1
	if o.repeatCheck {
		sets = 2
	}
	line.EndToEnd = make([]map[string]map[string]summary, sets)
	for set := range line.EndToEnd {
		line.EndToEnd[set] = make(map[string]map[string]summary)
	}
	for _, w := range workloads {
		results := make([][]*runResult, sets)
		for r := 0; r < o.runs; r++ {
			for k := 0; k < sets; k++ {
				set := (r + k) % sets
				res, err := runChild(self, w.name, o.seed+int64(r), o.seconds, 0)
				if err != nil {
					return err
				}
				line.Correct = line.Correct && res.Correct
				results[set] = append(results[set], res)
			}
		}
		for set, rs := range results {
			byMetric := summarize(rs, endToEnd)
			line.EndToEnd[set][w.name] = byMetric
			for _, m := range endToEnd {
				s := byMetric[m.name]
				fmt.Printf("%s.%s %v %s (min %v max %v, set %d)\n", w.name, m.name, s.Median, s.Unit, s.Min, s.Max, set+1)
			}
		}
	}

	if o.traced {
		line.PerLayer = make(map[string]map[string]summary)
		for _, w := range workloads {
			res, err := runChild(self, w.name, o.seed, o.seconds, 1)
			if err != nil {
				return err
			}
			line.Correct = line.Correct && res.Correct
			line.PerLayer[w.name] = summarize([]*runResult{res}, perLayer)
			for _, m := range perLayer {
				fmt.Printf("%s.%s %v %s (traced)\n", w.name, m.name, res.Metrics[m.name].Value, m.unit)
			}
		}
	}

	if err := appendHistory(line); err != nil {
		return err
	}
	if !line.Correct {
		return fmt.Errorf("a run failed its correctness checks")
	}
	if o.repeatCheck {
		return compareSets(line.EndToEnd[0], line.EndToEnd[1])
	}
	return nil
}

// compareSets is -repeat-check's verdict: two interleaved sets of the
// same code must agree on every end-to-end metric within the metric's
// own bound, or the bound (or the run length) is too tight to gate
// anything.
func compareSets(first, second map[string]map[string]summary) error {
	disagree := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := first[w.name][m.name].Median, second[w.name][m.name].Median
			verdict := "ok"
			if d := worseBy(m, a, b); d > m.bound || -d > m.bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("repeat-check %s.%s set1=%v set2=%v bound=%v %s\n", w.name, m.name, a, b, m.bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("repeat-check: %d metrics differ between two sets of the same code by more than their bound", disagree)
	}
	return nil
}

func appendHistory(line historyLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(historyPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitSHA names the commit the numbers were taken at; a tree with
// uncommitted changes gets a -dirty suffix, no repository "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(status)) > 0 {
		sha += "-dirty"
	}
	return sha
}
