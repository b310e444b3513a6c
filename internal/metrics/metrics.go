// Package metrics is a small, stdlib-only registry of counters, callback
// gauges and fixed-bucket histograms. One Registry lives on each daemon.
//
// A manager counts each event once, in a Counter it owns: the zero Counter
// is one atomic and needs no registry, so the manager's own Stats accessors
// read it whether metrics are on or off. SetMetrics then exposes that same
// Counter under a name (Register); the registry never keeps a second copy.
//
// What only the registry measures — latency and batch histograms, and the
// dynamic per-kind, per-peer and per-link counters — it hands out itself.
// A nil *Registry hands out nil instruments, and all instrument methods are
// no-ops on a nil receiver, so a daemon built without metrics pays one
// pointer-nil branch per histogram observation, mirroring the trace.Tracer
// convention.
//
// Snapshots copy the current values under the registry lock so readers never
// observe a torn histogram, and the wire/HTTP exposition layers work from the
// copy alone.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use, so a manager embeds its counters by value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current count (0 on a nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts duration observations into fixed buckets. Bounds are
// inclusive upper limits; one extra overflow bucket catches everything
// beyond the last bound. Observation is lock-free.
type Histogram struct {
	bounds []time.Duration // immutable after construction
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// DefaultLatencyBounds covers the microsecond-to-second range the SDVM
// control plane operates in.
var DefaultLatencyBounds = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations (0 on a nil histogram).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Sample is one named value in a snapshot. Histograms flatten into several
// samples: <name>.count, <name>.sum_ns and one <name>.le.<bound> per bucket
// (plus <name>.gt.<last bound> for the overflow bucket), so samples from
// different sites merge by summing values with equal names.
type Sample struct {
	Name  string
	Value int64
}

// Registry names the instruments of one daemon. The zero value is not usable;
// call NewRegistry. A nil *Registry is valid everywhere and disables
// collection.
type Registry struct {
	mu sync.Mutex
	// counters maps name to instrument. guarded by mu
	counters map[string]*Counter
	// hists maps name to instrument. guarded by mu
	hists map[string]*Histogram
	// gaugeFns holds callback gauges, read at snapshot time. guarded by mu
	gaugeFns map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		gaugeFns: make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Register exposes a counter its manager owns under name, so snapshots
// read the manager's own count instead of a twin. No-op on a nil registry.
func (r *Registry) Register(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (bounds of an existing histogram are kept). Passing
// nil bounds uses DefaultLatencyBounds. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := make([]time.Duration, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a callback evaluated at snapshot time, for values that
// are cheaper to compute on demand than to track (queue depths, map sizes).
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = f
}

// Snapshot copies every instrument into a flat, name-sorted sample list.
// Returns nil on a nil registry.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counters)+len(r.gaugeFns)+8*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Value: int64(c.Load())})
	}
	type fn struct {
		name string
		f    func() int64
	}
	fns := make([]fn, 0, len(r.gaugeFns))
	for name, f := range r.gaugeFns {
		fns = append(fns, fn{name, f})
	}
	for name, h := range r.hists {
		out = append(out, Sample{Name: name + ".count", Value: int64(h.count.Load())})
		out = append(out, Sample{Name: name + ".sum_ns", Value: h.sum.Load()})
		for i, b := range h.bounds {
			out = append(out, Sample{Name: name + ".le." + b.String(), Value: int64(h.counts[i].Load())})
		}
		out = append(out, Sample{
			Name:  name + ".gt." + h.bounds[len(h.bounds)-1].String(),
			Value: int64(h.counts[len(h.bounds)].Load()),
		})
	}
	r.mu.Unlock()
	// Callback gauges run outside the registry lock: they typically take a
	// manager lock of their own and must not nest under ours.
	for _, f := range fns {
		out = append(out, Sample{Name: f.name, Value: f.f()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Merge sums samples into dst by name. Counters and histogram buckets add
// up across sites; summed gauges read as cluster totals (e.g. total queued
// frames).
func Merge(dst map[string]int64, samples []Sample) {
	for _, s := range samples {
		dst[s.Name] += s.Value
	}
}
