package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMetricsPrintsPrometheus re-executes the test binary as
// lsched-demo -metrics and requires the registry, rendered as
// Prometheus text, to follow the run's summary on stdout.
func TestMetricsPrintsPrometheus(t *testing.T) {
	if os.Getenv("LSCHED_RUN_MAIN") == "1" {
		os.Args = []string{"lsched-demo", "-bench", "ssb", "-queries", "2", "-metrics"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMetricsPrintsPrometheus$")
	cmd.Env = append(os.Environ(), "LSCHED_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("lsched-demo -metrics: %v\n%s", err, out)
	}
	summary := strings.Index(string(out), "queries completed")
	family := strings.Index(string(out), "# TYPE engine_workorders_completed counter")
	if summary < 0 || family < summary {
		t.Fatalf("want the run summary followed by the Prometheus exposition; stdout:\n%s", out)
	}
}
