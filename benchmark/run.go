package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricSpec names one metric of the benchmark; BENCHMARK.json repeats
// these tables (bench_test.go keeps the two equal).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, each in the workload's own unit of work (see
// workload.unit); bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.15},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; its JSON form is the
// last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill reports every metric of specs with its value (0 where values has
// none) and its unit.
func (r *result) fill(specs []metricSpec, values map[string]float64) {
	for _, spec := range specs {
		r.Metrics[spec.Name] = metric{values[spec.Name], spec.Unit}
	}
}

// runConfig selects one run.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	sz      sizes
	// setups is how often at most the cluster is built; setup_s is the
	// median.
	setups int
	// probeFor is how long each layer probe of the traced pass measures.
	probeFor time.Duration
	log      io.Writer
}

// A cluster is built in 0.1 to 10 ms here, three builds of one run easily
// a factor of five apart, so one run builds it until it has spent
// setupBudget on that, at least minSetups and at most setupsPerRun times,
// and reports the median.
const (
	minSetups   = 5
	setupBudget = 500 * time.Millisecond
)

// setupsPerRun is how often at most one run builds spec's cluster. Each TCP
// build leaves a dozen sockets in TIME_WAIT, which caps those. In-process
// builds leave nothing, and the one-site cluster needs the larger number:
// 60 builds of it took 6 ms, all of them in the process's first, cold
// milliseconds, and their median spread 40-50 % from run to run.
func setupsPerRun(spec clusterSpec) int {
	if spec.tcp {
		return 60
	}
	return 2000
}

// measured is the outcome of one window of load.
type measured struct {
	elapsed   time.Duration
	cpu       time.Duration
	allocated uint64 // heap bytes allocated during the window
	attempted int
	failed    int
	units     float64
	seqWork   time.Duration // simulated Work the completed ops need at speed 1
	latMS     []float64
	notes     []string
}

func (m measured) completed() int { return m.attempted - m.failed }

func (m measured) workPerS() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return m.units / m.elapsed.Seconds()
}

// rusage returns the process's user+system CPU time so far and its peak
// resident set in MB (Linux reports KiB).
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// drive runs one window of load and its output checks.
func drive(run func(*window), warm bool, length time.Duration) measured {
	win := &window{warm: warm, deadline: time.Now().Add(length)}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, _ := rusage()
	start := time.Now()
	run(win)
	m := measured{elapsed: time.Since(start)}
	cpu1, _ := rusage()
	m.cpu = cpu1 - cpu0
	runtime.ReadMemStats(&mem1)
	m.allocated = mem1.TotalAlloc - mem0.TotalAlloc
	for _, hook := range win.post {
		hook(win.newTally())
	}
	for _, t := range win.tallies {
		for _, check := range t.checks {
			if err := check(); err != nil {
				t.units--
				t.fail("%v", err)
			}
		}
		m.attempted += t.attempted
		m.failed += t.failed
		m.units += t.units
		m.seqWork += t.seqWork
		m.latMS = append(m.latMS, t.latMS...)
		m.notes = append(m.notes, t.notes...)
	}
	return m
}

// session is a cluster built for one window sequence.
type session struct {
	e   *env
	run func(*window)
}

func (cfg runConfig) open(metrics, traced bool, rec *recorder) (*session, time.Duration, error) {
	c, took, err := buildCluster(cfg.w.spec, metrics, rec)
	if err != nil {
		return nil, 0, err
	}
	e := &env{c: c, sz: cfg.sz, seed: cfg.seed}
	if traced {
		e.rec = rec
	}
	return &session{e: e, run: cfg.w.prepare(e)}, took, nil
}

// runWorkload performs one run: builds the cluster (several times, for
// setup_s), warms it up, measures one window of load, checks every output
// and returns the metrics of the chosen pass.
func runWorkload(cfg runConfig) (result, error) {
	res := result{Metrics: make(map[string]metric)}
	length := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.w.procs))
	}

	var rec *recorder
	if cfg.traced {
		rec = newRecorder(cfg.w.traceEvery)
		activeRecorder.Store(rec)
		defer activeRecorder.Store(nil)
	}

	// Set-up, repeated. The untraced pass measures on the last cluster.
	// The traced pass uses the last registry-less cluster for a short
	// untraced reference window (the base of trace.overhead_share) and
	// then builds the traced cluster with the registries on.
	var (
		setupS []float64
		s      *session
	)
	for i, start := 0, time.Now(); i < cfg.setups && (i < minSetups || time.Since(start) < setupBudget); i++ {
		if s != nil {
			s.e.c.close()
		}
		var (
			took time.Duration
			err  error
		)
		if s, took, err = cfg.open(false, false, rec); err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, took.Seconds())
	}
	var reference measured
	if cfg.traced {
		rec.pause()
		drive(s.run, true, 0)
		reference = drive(s.run, false, length/4)
		s.e.c.closeWithin(5 * time.Second)
		rec.resume()
		var err error
		if s, _, err = cfg.open(true, true, rec); err != nil {
			return res, fmt.Errorf("traced set-up: %w", err)
		}
	}
	stop := func() {
		if s != nil && !s.e.c.closeWithin(5*time.Second) {
			fmt.Fprintf(cfg.log, "%s: the cluster did not stop within 5s\n", cfg.w.name)
		}
		s = nil
	}
	defer stop()

	rec.pause()
	warm := drive(s.run, true, 0)
	rec.resume()
	before := snapshotLayers(s.e.c)
	m := drive(s.run, false, length)
	after := snapshotLayers(s.e.c)

	res.Attempted, res.Failed = m.attempted, m.failed
	res.Correct = m.failed == 0 && m.attempted > 0
	for _, n := range append(warm.notes, m.notes...) {
		fmt.Fprintf(cfg.log, "FAILED %s: %s\n", cfg.w.name, n)
	}
	if warm.failed > 0 {
		// A failed warm-up op is not in the measured count, but the run
		// is not a clean one either.
		res.Correct = false
	}
	fmt.Fprintf(cfg.log, "%s seed %d: %d ops (%d failed) and %.0f %s in %.2fs, %d timed\n",
		cfg.w.name, cfg.seed, m.attempted, m.failed, m.units, cfg.w.unit, m.elapsed.Seconds(), len(m.latMS))

	if !cfg.traced {
		lat := sorted(m.latMS)
		tail := quantile(lat, 1)
		if cfg.w.tail > 0 {
			tail = quantile(lat, cfg.w.tail)
		}
		perOp := 0.0
		if m.completed() > 0 {
			perOp = float64(m.cpu) / 1e6 / float64(m.completed())
		}
		res.fill(endToEnd, map[string]float64{
			"setup_s":       median(setupS),
			"work_per_s":    m.workPerS(),
			"op_p50_ms":     median(m.latMS),
			"op_tail_ms":    tail,
			"cpu_ms_per_op": perOp,
		})
		return res, nil
	}

	// The probes need the live cluster; the spans may be read only once it
	// has stopped, because microthreads of a terminated program (the
	// primes tests still in flight at Exit) keep closing spans until then.
	rec.pause()
	values := make(map[string]float64)
	runProbes(cfg, s.e.c, values)
	stop()
	spans := rec.taken()
	layerMetrics(values, cfg, m, before, after, summarize(spans))
	if base := reference.workPerS(); base > 0 {
		values["trace.overhead_share"] = 1 - m.workPerS()/base
	}
	values["trace.dropped_spans"] = float64(rec.dropped.Load())
	_, values["process.peak_rss_mb"] = rusage()
	res.fill(perLayer, values)
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return res, err
		}
		path := filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json")
		if err := writeSpans(path, cfg.w.name, cfg.seed, spans, rec.dropped.Load()); err != nil {
			return res, err
		}
		fmt.Fprintf(cfg.log, "%s: %d spans (%d dropped) written to %s\n", cfg.w.name, len(spans), rec.dropped.Load(), path)
	}
	return res, nil
}
