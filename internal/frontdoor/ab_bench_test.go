package frontdoor

import (
	"testing"
	"time"

	"repro/internal/lsched"
	"repro/internal/nn"
)

// BenchmarkAdmissionAB replays the same seeded 2x-overload trace
// against the heuristic admit-everything baseline and the learned
// admission controller, reporting the p99 end-to-end latency of
// *admitted* latency-sensitive queries (p99-ns) and the fraction of
// latency-sensitive queries dropped (shed-pct). The learned head must
// win on p99 at an equal-or-lower shed rate.
func BenchmarkAdmissionAB(b *testing.B) {
	arms := []struct {
		name string
		ctrl func() Controller
	}{
		{"heuristic", func() Controller { return NewHeuristic() }},
		{"learned", func() Controller { return NewLearned(lsched.NewAdmissionHead(nn.NewParams(42))) }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			var p99Sum, shedSum float64
			for i := 0; i < b.N; i++ {
				res := runOverload(b, overloadConfig{
					queries:       1500,
					tenants:       4,
					slots:         4,
					service:       400 * time.Microsecond,
					overload:      2,
					deadline:      25 * time.Millisecond,
					queueCap:      256,
					seed:          42,
					controller:    arm.ctrl,
					expensiveFrac: 0.25,
					expensive:     5 * time.Millisecond,
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
