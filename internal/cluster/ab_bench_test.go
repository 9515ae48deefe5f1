package cluster

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

func p99ns(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := (len(lat) * 99) / 100
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return float64(lat[idx])
}

// routingRun pushes one seeded skewed trace through a fresh cluster
// under the given policy and returns the latencies of the light
// queries — the ones that suffer when routing parks them behind a
// heavy query's node.
func routingRun(b *testing.B, policy Policy) []time.Duration {
	b.Helper()
	const (
		nodes      = 4
		perUnit    = 20 * time.Microsecond
		queries    = 400
		workers    = 24
		heavyEvery = 8 // every 8th query is 25x the work of the rest
		lightUnits = 2
		heavyUnits = 50
	)
	ns := make([]*Node, nodes)
	for i := range ns {
		ns[i] = testNode(b, fmt.Sprintf("node-%d", i), unitSleepBackend(perUnit))
	}
	lc, err := NewLocalCluster(Options{Policy: policy, MaxPerNode: 2}, ns...)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close(5 * time.Second)

	// Skewed tenants: two tenants produce all the heavy queries.
	work := make(chan int, queries)
	for i := 0; i < queries; i++ {
		work <- i
	}
	close(work)
	var mu sync.Mutex
	light := make([]time.Duration, 0, queries)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				units, tenant := lightUnits, fmt.Sprintf("tenant-%d", i%6)
				if i%heavyEvery == 0 {
					units, tenant = heavyUnits, fmt.Sprintf("heavy-%d", i%2)
				}
				start := time.Now()
				if _, err := lc.Coord.Run(testQuery(tenant, units)); err != nil {
					b.Errorf("query %d failed: %v", i, err)
					continue
				}
				if units == lightUnits {
					mu.Lock()
					light = append(light, time.Since(start))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	st := lc.Coord.Status()
	if st.Completed != queries || st.Failed != 0 {
		b.Fatalf("conservation broken in bench: %+v", st)
	}
	return light
}

// BenchmarkClusterRouting replays the same seeded skewed trace (1 in 8
// queries carries 25x the work, concentrated on two tenants) against
// the round-robin baseline and the load-aware least-loaded policy,
// reporting the p99 latency of the *light* queries (p99-ns): routing
// by predicted O-DUR is meant to keep light queries away from nodes
// chewing heavy ones.
func BenchmarkClusterRouting(b *testing.B) {
	arms := []struct {
		name   string
		policy func() Policy
	}{
		{"round-robin", func() Policy { return &RoundRobin{} }},
		{"least-loaded", func() Policy { return LeastLoaded{} }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			var p99Sum float64
			for i := 0; i < b.N; i++ {
				p99Sum += p99ns(routingRun(b, arm.policy()))
			}
			b.ReportMetric(p99Sum/float64(b.N), "p99-ns")
		})
	}
}
