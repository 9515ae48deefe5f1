package frontdoor

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lsched"
	"repro/internal/nn"
)

// instantBackend completes queries immediately; the benchmark measures
// the front door's own submit→admit→dispatch path, not backend work.
type instantBackend struct{}

func (instantBackend) Run(*Query) (*Result, error) { return &Result{}, nil }

// BenchmarkFrontDoorSubmit times the submit hot path: concurrent
// submitters (one tenant per goroutine, so they spread across shards)
// each submit and wait for the ticket to resolve. The shards1 arm
// serializes every submitter on one shard lock; the default arm
// (GOMAXPROCS shards) is what the CLIs run.
func BenchmarkFrontDoorSubmit(b *testing.B) {
	arms := []struct {
		name   string
		shards int
	}{
		{"shards1", 1},
		{"default", 0},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			fd, err := New(Options{
				Backend:     instantBackend{},
				MaxInFlight: 64,
				QueueCap:    1024,
				Shards:      arm.shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			var gid atomic.Int64
			// Ingress handlers outnumber cores: 8 submitters per proc,
			// one tenant each, each waiting its query's round trip.
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				qq := q(fmt.Sprintf("bench-%d", gid.Add(1)), ClassThroughput)
				for pb.Next() {
					tk, err := fd.Submit(qq)
					if err != nil {
						b.Error(err)
						return
					}
					<-tk.Done()
				}
			})
			b.StopTimer()
			fd.Shutdown(10 * time.Second)
		})
	}
}

// BenchmarkOverloadCurve sweeps offered load from half the sustainable
// rate to 3x it and reports, per controller, the p99 latency of
// admitted latency-class queries (p99-ns) and the drop rate of the
// latency class (shed-pct) at each step. The pairs trace the overload
// curve: flat p99 below saturation, and — with working admission —
// still-bounded p99 past it, paid for with shed load.
func BenchmarkOverloadCurve(b *testing.B) {
	arms := []struct {
		name string
		ctrl func() Controller
	}{
		{"heuristic", func() Controller { return NewHeuristic() }},
		{"learned", func() Controller { return NewLearned(lsched.NewAdmissionHead(nn.NewParams(42))) }},
	}
	loads := []float64{0.5, 1.0, 1.5, 2.0, 3.0}
	for _, arm := range arms {
		for _, x := range loads {
			b.Run(fmt.Sprintf("%s/x%.1f", arm.name, x), func(b *testing.B) {
				var p99Sum, shedSum float64
				for i := 0; i < b.N; i++ {
					res := runOverload(b, overloadConfig{
						queries:    1200,
						tenants:    4,
						slots:      4,
						service:    400 * time.Microsecond,
						overload:   x,
						deadline:   25 * time.Millisecond,
						queueCap:   256,
						seed:       42,
						controller: arm.ctrl,
					})
					p99Sum += float64(p99(res.latLatency))
					dropped := res.latTotal - len(res.latLatency)
					shedSum += 100 * float64(dropped) / float64(res.latTotal)
				}
				b.ReportMetric(p99Sum/float64(b.N), "p99-ns")
				b.ReportMetric(shedSum/float64(b.N), "shed-pct")
			})
		}
	}
}
