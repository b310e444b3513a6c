package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	h := r.Histogram("c", nil)
	if c != nil || h != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	h.Observe(time.Second)
	r.GaugeFunc("d", func() int64 { return 1 })
	r.Register("e", &Counter{})
	if c.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments should read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("msgs") != c {
		t.Fatal("same name should return same counter")
	}
	depth := int64(10)
	r.GaugeFunc("depth", func() int64 { return depth })
	depth -= 3
	flat := make(map[string]int64)
	Merge(flat, r.Snapshot())
	if flat["depth"] != 7 {
		t.Fatalf("gauge = %d, want 7", flat["depth"])
	}
}

// TestRegisterReadsTheOwnedCounter pins the one-counter-per-event rule: a
// registered counter is the manager's own, not a copy, so counts made
// before and after Register both show in the snapshot, and Counter(name)
// hands out that same instrument.
func TestRegisterReadsTheOwnedCounter(t *testing.T) {
	var owned Counter
	owned.Inc()
	r := NewRegistry()
	r.Register("mgr.events", &owned)
	owned.Add(2)
	if r.Counter("mgr.events") != &owned {
		t.Fatal("Counter(name) should return the registered counter")
	}
	flat := make(map[string]int64)
	Merge(flat, r.Snapshot())
	if flat["mgr.events"] != 3 {
		t.Fatalf("mgr.events = %d, want 3", flat["mgr.events"])
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond}
	h := r.Histogram("lat", bounds)
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (inclusive)
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	want := 500*time.Microsecond + time.Millisecond + 2*time.Millisecond + time.Second
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	flat := make(map[string]int64)
	Merge(flat, r.Snapshot())
	if flat["lat.le.1ms"] != 2 || flat["lat.le.10ms"] != 1 || flat["lat.gt.10ms"] != 1 {
		t.Fatalf("bucket counts wrong: %v", flat)
	}
	if flat["lat.count"] != 4 {
		t.Fatalf("lat.count = %d, want 4", flat["lat.count"])
	}
}

func TestSnapshotSortedAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Counter("a").Add(2)
	r.GaugeFunc("m", func() int64 { return 42 })
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %v", snap)
		}
	}
	flat := make(map[string]int64)
	Merge(flat, snap)
	if flat["m"] != 42 || flat["a"] != 2 || flat["z"] != 1 {
		t.Fatalf("unexpected snapshot: %v", flat)
	}
}

func TestMergeSumsAcrossSites(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("exec.executed").Add(3)
	b.Counter("exec.executed").Add(4)
	b.Counter("mem.replica.hits").Add(1)
	flat := make(map[string]int64)
	Merge(flat, a.Snapshot())
	Merge(flat, b.Snapshot())
	if flat["exec.executed"] != 7 || flat["mem.replica.hits"] != 1 {
		t.Fatalf("merge wrong: %v", flat)
	}
}

// TestConcurrentUse exercises creation, mutation and snapshotting from many
// goroutines; its value is mostly under -race.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", nil)
			for i := 0; i < iters; i++ {
				c.Inc()
				r.Counter("g").Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != workers*iters {
		t.Fatalf("shared = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat", nil).Count(); got != workers*iters {
		t.Fatalf("lat count = %d, want %d", got, workers*iters)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("bus.sent").Add(9)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var flat map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	if flat["bus.sent"] != 9 {
		t.Fatalf("handler served %v", flat)
	}

	// A nil registry must serve an empty object, not error.
	srv2 := httptest.NewServer(Handler(nil))
	defer srv2.Close()
	resp2, err := srv2.Client().Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var empty map[string]int64
	if err := json.NewDecoder(resp2.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("nil registry served %v", empty)
	}
}

func BenchmarkCounterNil(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterHot(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
