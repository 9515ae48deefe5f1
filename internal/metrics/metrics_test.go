package metrics

import (
	"reflect"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	// Bucket i counts v <= Bounds[i] (and > Bounds[i-1]); the final
	// Counts entry is the overflow bucket.
	bounds := []float64{1, 10, 100}
	cases := []struct {
		name   string
		obs    []float64
		counts []int64
	}{
		{"empty", nil, []int64{0, 0, 0, 0}},
		{"below-first", []float64{0.5, -3}, []int64{2, 0, 0, 0}},
		{"on-boundary", []float64{1, 10, 100}, []int64{1, 1, 1, 0}},
		{"just-above-boundary", []float64{1.0001, 10.0001}, []int64{0, 1, 1, 0}},
		{"overflow", []float64{100.0001, 1e9}, []int64{0, 0, 0, 2}},
		{"mixed", []float64{0, 1, 2, 10, 11, 100, 101}, []int64{2, 2, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewRegistry().Histogram("h", bounds)
			sum := 0.0
			for _, v := range tc.obs {
				h.Observe(v)
				sum += v
			}
			snap := h.snapshot()
			if !reflect.DeepEqual(snap.Counts, tc.counts) {
				t.Fatalf("counts = %v, want %v", snap.Counts, tc.counts)
			}
			if snap.Count != int64(len(tc.obs)) {
				t.Fatalf("count = %d, want %d", snap.Count, len(tc.obs))
			}
			if snap.Sum != sum {
				t.Fatalf("sum = %v, want %v", snap.Sum, sum)
			}
		})
	}
}

func TestHistogramBoundsNormalized(t *testing.T) {
	// Unsorted and duplicated bounds are normalized at creation.
	h := NewRegistry().Histogram("h", []float64{10, 1, 10, 5})
	snap := h.snapshot()
	want := []float64{1, 5, 10}
	if !reflect.DeepEqual(snap.Bounds, want) {
		t.Fatalf("bounds = %v, want %v", snap.Bounds, want)
	}
	if len(snap.Counts) != len(want)+1 {
		t.Fatalf("counts len = %d, want %d", len(snap.Counts), len(want)+1)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	// Many goroutines hammering the same instruments must lose nothing.
	reg := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Lookup inside the goroutine: registration must be
			// concurrency-safe too, and must return the same instrument.
			c := reg.Counter("c")
			h := reg.Histogram("h", []float64{0.5})
			ga := reg.Gauge("g")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(1) // all land in the overflow bucket
				ga.Set(float64(i))
			}
		}()
	}
	wg.Wait()
	const want = goroutines * perG
	if got := reg.Counter("c").Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	h := reg.Histogram("h", nil).snapshot()
	if h.Count != want || h.Counts[1] != want || h.Sum != want {
		t.Fatalf("histogram = %+v, want count=sum=%d in overflow", h, want)
	}
	if g := reg.Gauge("g").Value(); g != perG-1 {
		t.Fatalf("gauge = %v, want %v", g, perG-1)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		record   int
		wantLen  int
		firstSeq uint64
	}{
		{"under-capacity", 8, 5, 5, 0},
		{"exactly-full", 8, 8, 8, 0},
		{"wrapped-once", 8, 11, 8, 3},
		{"wrapped-many", 4, 103, 4, 99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer(tc.capacity)
			for i := 0; i < tc.record; i++ {
				tr.Record(Event{Kind: EvDispatch, Time: float64(i), Query: i})
			}
			evs := tr.Events()
			if len(evs) != tc.wantLen {
				t.Fatalf("len = %d, want %d", len(evs), tc.wantLen)
			}
			if tr.Total() != uint64(tc.record) {
				t.Fatalf("total = %d, want %d", tr.Total(), tc.record)
			}
			for i, e := range evs {
				wantSeq := tc.firstSeq + uint64(i)
				if e.Seq != wantSeq || e.Query != int(wantSeq) {
					t.Fatalf("event %d = %+v, want seq %d (oldest-first order)", i, e, wantSeq)
				}
			}
		})
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Event{Kind: EvComplete})
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestNilSafety(t *testing.T) {
	// Everything must be callable through nil handles — the disabled
	// configuration instrumented code relies on.
	var reg *Registry
	var tr *Tracer
	reg.Counter("x").Inc()
	reg.Counter("x").Add(5)
	reg.Gauge("y").Set(1)
	reg.Histogram("z", nil).Observe(1)
	tr.Record(Event{})
	if v := reg.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if g := reg.Gauge("y").Value(); g != 0 {
		t.Fatalf("nil gauge value = %v", g)
	}
	if h := reg.Histogram("z", nil); h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram not empty")
	}
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer events = %v", evs)
	}
	if tr.Total() != 0 {
		t.Fatal("nil tracer total != 0")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}
