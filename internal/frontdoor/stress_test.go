package frontdoor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConservationUnderChurn is the concurrency stress test for the
// terminal-bucket invariant: N tenants × M producers submitting and
// cancelling against one drain-looping front door, with rate limiting
// and bounded queues forcing every reject path. Every ticket must
// resolve exactly once and the buckets must conserve:
//
//	admitted + shed + rejected == submitted
//
// Run under -race (scripts/check.sh includes this package in the race
// set); the invariant plus the race detector covers the queue
// bookkeeping, cancel-vs-admit races, and shutdown shedding. The churn
// runs on a single shard (fully serial door, no stealing) and sharded
// at 8 shards/8 procs, where submitters, drain loops and thieves
// overlap.
func TestConservationUnderChurn(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		conservationChurn(t, 1)
	})
	t.Run("sharded", func(t *testing.T) {
		withProcs(t, 8)
		conservationChurn(t, 8)
	})
}

func conservationChurn(t *testing.T, shards int) {
	const (
		tenants     = 6
		producers   = 4 // per tenant
		perProducer = 120
	)
	be := &fakeBackend{delay: 200 * time.Microsecond}
	opts := Options{
		Backend:       be,
		MaxInFlight:   4,
		QueueCap:      8,
		Rate:          2000,
		Burst:         50,
		SweepInterval: time.Millisecond,
		Shards:        shards,
	}
	fd, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	names := make([]string, tenants)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	var wg sync.WaitGroup
	var submitted, resolved atomic.Int64
	var admitted, shed, rejected atomic.Int64
	for ti := 0; ti < tenants; ti++ {
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(tenant string, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < perProducer; i++ {
					qq := q(tenant, Class(rng.Intn(int(numClasses))))
					if rng.Intn(4) == 0 {
						qq.Deadline = time.Duration(1+rng.Intn(20)) * time.Millisecond
					}
					tk, _ := fd.Submit(qq)
					submitted.Add(1)
					if rng.Intn(4) == 0 {
						tk.Cancel()
					}
					go func() {
						d := <-tk.Done()
						switch d.Outcome {
						case OutcomeAdmitted:
							admitted.Add(1)
						case OutcomeShed:
							shed.Add(1)
						case OutcomeRejected:
							rejected.Add(1)
						}
						resolved.Add(1)
					}()
					if rng.Intn(8) == 0 {
						time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					}
				}
			}(names[ti], int64(ti*producers+p+1))
		}
	}
	wg.Wait()
	// Shutdown resolves every still-queued ticket and drains in-flight.
	if !fd.Shutdown(30 * time.Second) {
		t.Fatal("shutdown drain timed out")
	}

	deadline := time.Now().Add(10 * time.Second)
	want := int64(tenants * producers * perProducer)
	for resolved.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := resolved.Load(); got != want {
		t.Fatalf("resolved %d of %d tickets", got, want)
	}
	if got := submitted.Load(); got != want {
		t.Fatalf("submitted %d, want %d", got, want)
	}

	// Conservation from the client's view...
	if a, s, r := admitted.Load(), shed.Load(), rejected.Load(); a+s+r != want {
		t.Fatalf("dispositions: admitted=%d shed=%d rejected=%d, sum %d != %d", a, s, r, a+s+r, want)
	}
	// ...and from the front door's own accounting, and they must agree.
	st := fd.Stats()
	if st.Admitted+st.Shed+st.Rejected != st.Submitted {
		t.Fatalf("stats do not conserve: %+v", st)
	}
	if st.Submitted != want || st.Admitted != admitted.Load() || st.Shed != shed.Load() || st.Rejected != rejected.Load() {
		t.Fatalf("stats %+v disagree with dispositions (admitted=%d shed=%d rejected=%d)",
			st, admitted.Load(), shed.Load(), rejected.Load())
	}
	if st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("post-shutdown occupancy: %+v", st)
	}
	if st.Admitted != int64(be.Runs()) {
		t.Fatalf("backend ran %d queries, admitted %d", be.Runs(), st.Admitted)
	}
}
