package frontdoor

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// goldenFrontDoorRegistry populates the front door's instrument set
// with fixed values through the same helpers the live path uses, so
// the golden file pins both the metric names and their exposition
// rendering (per-tenant counter families, per-class histograms with
// labels, fairness gauges).
func goldenFrontDoorRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	ins := newInstruments(reg)
	for _, tn := range []string{"acme", "zeta"} {
		ti := ins.forTenant(tn)
		ti.submitted.Add(100)
		ti.admitted.Add(70)
		ti.shed.Add(20)
		ti.rejected.Add(10)
		ti.depth[ClassLatency].Set(3)
		ti.depth[ClassThroughput].Set(12)
		ti.share.Set(0.5)
	}
	ins.queued.Set(30)
	ins.inflight.Set(8)
	ins.deadlineMet.Add(60)
	ins.deadlineMissed.Add(4)
	ins.steals.Add(7)
	for _, v := range []float64{0.001, 0.01, 0.02, 0.5} {
		ins.latency[ClassLatency].Observe(v)
		ins.wait[ClassLatency].Observe(v / 2)
	}
	ins.latency[ClassThroughput].Observe(1.5)
	ins.wait[ClassThroughput].Observe(0.75)
	return reg
}

// TestFrontDoorPrometheusGolden pins the front door's Prometheus
// exposition byte-for-byte, mirroring the obs package's golden test.
func TestFrontDoorPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	obs.WritePrometheus(&buf, goldenFrontDoorRegistry().Snapshot())
	golden := filepath.Join("testdata", "frontdoor.prom")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/frontdoor/ -update-golden` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
