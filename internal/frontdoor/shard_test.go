package frontdoor

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// withProcs raises GOMAXPROCS for one test so the sharded core's
// parallelism is exercised even on single-CPU CI hosts, restoring the
// previous value on cleanup.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestShardRouting pins the tenant→shard map: the same tenant always
// lands on the same shard, and the shard count rounds up to a power of
// two so the mask-based routing is valid.
func TestShardRouting(t *testing.T) {
	fd, err := New(Options{Backend: &fakeBackend{}, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown(time.Second)
	sc := fd.core
	if len(sc.shards) != 8 {
		t.Fatalf("Shards:5 rounded to %d shards, want 8", len(sc.shards))
	}
	for _, name := range []string{"a", "tenant-17", "", "analytics"} {
		if sc.shardFor(name) != sc.shardFor(name) {
			t.Fatalf("tenant %q routed to two shards", name)
		}
	}
}

// coHashedTenant finds a tenant name that routes to the same shard as
// anchor but is a distinct tenant, so the test controls co-residency
// instead of hoping for a hash collision.
func coHashedTenant(sc *shardedCore, anchor string) string {
	want := sc.shardFor(anchor)
	for i := 0; i < 1<<16; i++ {
		name := fmt.Sprintf("light-%d", i)
		if name != anchor && sc.shardFor(name) == want {
			return name
		}
	}
	panic("no co-hashed tenant name found")
}

// TestCrossShardFairness is the starvation regression for sharding: a
// hot tenant flooding its shard must not starve a light tenant that
// hashes to the same shard. The per-tenant bounded queues and
// round-robin drain are per shard, so the light tenant's small trickle
// should be admitted nearly in full even while the hot tenant's queue
// is saturated and shedding.
func TestCrossShardFairness(t *testing.T) {
	withProcs(t, 8)
	// QueueCap exceeds the light tenant's total submissions: with no
	// deadlines and no rate limit, the only way a light submission can
	// fail is genuine starvation, so the assertion below is exact.
	be := &fakeBackend{delay: 50 * time.Microsecond}
	fd, err := New(Options{
		Backend:     be,
		Shards:      8,
		MaxInFlight: 2,
		QueueCap:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := fd.core
	const hot = "hot"
	light := coHashedTenant(sc, hot)

	const hotN, lightN = 3000, 60
	hotDone := make(chan Disposition, hotN)
	for i := 0; i < hotN; i++ {
		// Submit returns an error for synchronous rejections (the hot
		// tenant saturating its queue is expected); the ticket still
		// resolves through Done either way.
		tk, _ := fd.Submit(q(hot, ClassThroughput))
		go func() { hotDone <- <-tk.Done() }()
		// Interleave the light tenant's trickle through the flood.
		if i%(hotN/lightN) == 0 {
			ltk, _ := fd.Submit(q(light, ClassThroughput))
			go func() { ltk.Done() }()
		}
	}
	// Wait for the flood to resolve (admitted or rejected — queue-full
	// rejections are expected and fine; starvation of the light tenant
	// is not).
	for i := 0; i < hotN; i++ {
		select {
		case <-hotDone:
		case <-time.After(30 * time.Second):
			t.Fatal("hot tenant ticket never resolved")
		}
	}
	if !fd.Shutdown(10 * time.Second) {
		t.Fatal("drain timed out")
	}

	var hotSt, lightSt TenantStatus
	for _, ts := range fd.Status().(StatusData).Tenants {
		switch ts.Tenant {
		case hot:
			hotSt = ts
		case light:
			lightSt = ts
		}
	}
	if lightSt.Submitted != lightN {
		t.Fatalf("light tenant submitted %d, want %d", lightSt.Submitted, lightN)
	}
	if lightSt.Admitted != lightN {
		t.Fatalf("light tenant admitted %d of %d (hot tenant: %+v) — co-hashed starvation",
			lightSt.Admitted, lightN, hotSt)
	}
	t.Logf("fairness: shard %d, hot admitted=%d rejected=%d; light admitted=%d of %d",
		sc.shardFor(hot).id, hotSt.Admitted, hotSt.Rejected, lightSt.Admitted, lightN)
}

// differentShardTenant finds a tenant name routed to a different shard
// than anchor, so the test controls the steal topology.
func differentShardTenant(sc *shardedCore, anchor string) string {
	avoid := sc.shardFor(anchor)
	for i := 0; i < 1<<16; i++ {
		name := fmt.Sprintf("cold-%d", i)
		if sc.shardFor(name) != avoid {
			return name
		}
	}
	panic("no differently-sharded tenant name found")
}

// TestWorkStealingConservation pins the steal protocol: a blocker on a
// cold shard holds the only slot while a hot shard queues a backlog;
// when the blocker completes, its goroutine's inline pass finds its
// own shard empty and must steal the hot shard's head — and every
// stolen query lands in exactly one terminal bucket, with the
// victim-side stolen counters equal to the door-level steal counter.
func TestWorkStealingConservation(t *testing.T) {
	withProcs(t, 8)
	const backlog = 32

	// The thief takes the victim's lock with TryLock, so a sweep tick
	// holding it at the wrong instant legitimately skips the steal
	// (the owner is kicked instead); retry a few rounds.
	var steals int64
	for round := 0; round < 5 && steals == 0; round++ {
		be := &blockingBackend{
			entered: make(chan struct{}, backlog+1),
			release: make(chan struct{}, backlog+1),
		}
		fd, err := New(Options{
			Backend:     be,
			Shards:      8,
			MaxInFlight: 1,
			QueueCap:    backlog,
		})
		if err != nil {
			t.Fatal(err)
		}
		sc := fd.core
		const hot = "hot"
		cold := differentShardTenant(sc, hot)

		blocker, err := fd.Submit(q(cold, ClassThroughput))
		if err != nil {
			t.Fatal(err)
		}
		<-be.entered // blocker admitted and running: the slot is held
		tickets := []*Ticket{blocker}
		for i := 0; i < backlog; i++ {
			tk, err := fd.Submit(q(hot, ClassThroughput))
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		// Release the chain: the blocker's completion frees the slot on
		// the cold shard; each subsequent completion drains the hot
		// shard until the backlog is gone.
		for i := 0; i < backlog+1; i++ {
			be.release <- struct{}{}
			if i < backlog {
				<-be.entered
			}
		}
		var admitted int64
		for i, tk := range tickets {
			select {
			case d := <-tk.Done():
				if d.Outcome != OutcomeAdmitted {
					t.Fatalf("ticket %d outcome %v, want admitted", i, d.Outcome)
				}
				admitted++
			case <-time.After(30 * time.Second):
				t.Fatalf("ticket %d never resolved", i)
			}
		}
		if !fd.Shutdown(10 * time.Second) {
			t.Fatal("drain timed out")
		}

		// Exactly-once terminal accounting, client view vs door view.
		st := fd.Stats()
		if st.Admitted != admitted || st.Submitted != backlog+1 || st.Shed != 0 || st.Rejected != 0 {
			t.Fatalf("stats %+v, want %d admitted of %d", st, admitted, backlog+1)
		}

		// Steal bookkeeping: victim-side counters equal the door total,
		// and the /frontdoor payload exposes the same numbers.
		var stolen int64
		for _, sh := range sc.shards {
			sh.mu.Lock()
			stolen += sh.stolen
			sh.mu.Unlock()
		}
		steals = sc.steals.Load()
		if stolen != steals {
			t.Fatalf("victim-side stolen sum %d != door steal counter %d", stolen, steals)
		}
		var statusStolen int64
		for _, ss := range fd.Status().(StatusData).Shards {
			statusStolen += ss.Stolen
		}
		if statusStolen != steals {
			t.Fatalf("status stolen sum %d != door steal counter %d", statusStolen, steals)
		}
	}
	if steals == 0 {
		t.Fatal("cold-shard completion never stole the hot shard's backlog (5 rounds)")
	}
	t.Logf("steals=%d with exact terminal accounting", steals)
}
