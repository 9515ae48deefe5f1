package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMetricsFormatRejectedBeforeRun re-executes the test binary as
// lsched-demo with an unknown -metrics-format and requires it to fail
// before the run prints anything: a bad flag must not cost a full run.
func TestMetricsFormatRejectedBeforeRun(t *testing.T) {
	if os.Getenv("LSCHED_RUN_MAIN") == "1" {
		os.Args = []string{"lsched-demo", "-metrics", "-metrics-format", "yaml"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMetricsFormatRejectedBeforeRun$")
	cmd.Env = append(os.Environ(), "LSCHED_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown -metrics-format was accepted")
	}
	if !strings.Contains(stderr.String(), "unknown metrics format") {
		t.Fatalf("stderr does not name the bad flag: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("the run started before the flag was rejected; stdout: %q", stdout.String())
	}
}
