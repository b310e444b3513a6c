// Package bench is the experiment harness behind cmd/sdvmbench. Every
// table and figure of the paper's evaluation (§5) — plus the
// latency-window (A-2) and security (A-3) ablations and the P-4
// membership-at-scale check — is regenerated by one function here.
// Performance claims are made with the separate benchmark module
// (benchmark/, BENCHMARK.json), not with these wall-clock runs.
//
// Time scale: the paper's prime test costs ≈60 ms per candidate on a
// 1.7 GHz Pentium IV. The harness expresses costs in Work units and maps
// them to wall-clock via Spec.WorkUnit, so the whole evaluation runs at
// 1/20th of 2005 scale by default. Sites simulate their computation by
// sleeping while holding their single-CPU token (see the exec package),
// which reproduces parallel speedup shape on any host, even single-core.
package bench

import (
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/internal/exec"
	"repro/internal/mthread"
	"repro/internal/security"
	"repro/internal/transport/inproc"
	"repro/internal/types"
	"repro/internal/workloads"
)

// Spec describes the cluster a measurement runs on.
type Spec struct {
	Sites int
	// WorkUnit maps one Work unit to wall-clock (default 1ms).
	WorkUnit time.Duration
	// Window is the latency-hiding window (default: paper's 5).
	Window int
	// Link is the simulated network profile (zero = fast LAN).
	Link inproc.LinkProfile
	// Secret enables AES-GCM on all traffic (A-3).
	Secret string
	// DistinctPlatforms gives every site its own platform id, forcing
	// on-the-fly compilation everywhere (hetero experiment).
	DistinctPlatforms bool
	// CompileCost per on-the-fly compile.
	CompileCost time.Duration
	// Checkpointing/heartbeat (crash experiment).
	CheckpointEvery time.Duration
	HeartbeatEvery  time.Duration
	// RestartGrace overrides the submitter's last-resort restart delay.
	RestartGrace time.Duration
}

func (s Spec) workUnit() time.Duration {
	if s.WorkUnit <= 0 {
		return time.Millisecond
	}
	return s.WorkUnit
}

// Cluster is a running measurement cluster.
type Cluster struct {
	Fabric  *inproc.Fabric
	Daemons []*daemon.Daemon
}

// NewCluster builds the cluster a Spec describes.
func NewCluster(spec Spec) (*Cluster, error) {
	fab := inproc.New(spec.Link)
	c := &Cluster{Fabric: fab}
	for i := 0; i < spec.Sites; i++ {
		cfg := daemon.Config{
			PhysAddr:     fmt.Sprintf("bench-site-%d", i),
			Network:      fab,
			WorkModel:    exec.WorkSimulated,
			WorkUnit:     spec.workUnit(),
			Window:       spec.Window,
			CompileCost:  spec.CompileCost,
			RestartGrace: spec.RestartGrace,
			Seed:         int64(i + 1),
		}
		if spec.Secret != "" {
			layer, err := security.NewAESGCM(spec.Secret)
			if err != nil {
				c.Close()
				return nil, err
			}
			cfg.Security = layer
		}
		if spec.DistinctPlatforms {
			cfg.Platform = types.PlatformID(i + 1)
		}
		if spec.CheckpointEvery > 0 || spec.HeartbeatEvery > 0 {
			cfg.Checkpoint.Interval = spec.CheckpointEvery
			cfg.Checkpoint.HeartbeatEvery = spec.HeartbeatEvery
			cfg.Checkpoint.HeartbeatTimeout = 150 * time.Millisecond
			cfg.Checkpoint.MissLimit = 3
		}
		d := daemon.New(cfg)
		var err error
		if i == 0 {
			err = d.Bootstrap()
		} else {
			err = d.Join("bench-site-0")
		}
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("bench: site %d: %w", i, err)
		}
		c.Daemons = append(c.Daemons, d)
	}
	return c, nil
}

// Close tears the cluster down.
func (c *Cluster) Close() {
	for _, d := range c.Daemons {
		d.Kill()
	}
	c.Fabric.Close()
}

// Run submits app on site 0 and returns the wall-clock time to the
// program's termination plus the raw result.
func (c *Cluster) Run(app daemon.App, args ...[]byte) (time.Duration, []byte, error) {
	start := time.Now()
	prog, err := c.Daemons[0].Submit(app, args...)
	if err != nil {
		return 0, nil, err
	}
	raw, ok := c.Daemons[0].WaitResult(prog, 30*time.Minute)
	if !ok {
		return 0, nil, fmt.Errorf("bench: program %v did not terminate", prog)
	}
	return time.Since(start), raw, nil
}

// RunPrimes measures one primes configuration on a fresh cluster and
// verifies the result.
func RunPrimes(spec Spec, p, width int, cost float64) (time.Duration, error) {
	c, err := NewCluster(spec)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	elapsed, raw, err := c.Run(workloads.PrimesApp(), workloads.PrimesArgs(p, width, cost)...)
	if err != nil {
		return 0, err
	}
	primes := workloads.ParsePrimesResult(raw)
	if len(primes) != p || primes[p-1] != workloads.NthPrime(p) {
		return 0, fmt.Errorf("bench: wrong primes result (%d found, last %d)", len(primes), primes[len(primes)-1])
	}
	return elapsed, nil
}

// RunSeqPrimes measures the stand-alone sequential baseline under the
// same simulated cost model (paper §5 / [5] overhead experiment).
func RunSeqPrimes(p, width int, cost float64, workUnit time.Duration) time.Duration {
	if workUnit <= 0 {
		workUnit = time.Millisecond
	}
	start := time.Now()
	workloads.SeqPrimes(p, width, cost, func(c float64) {
		if c > 0 {
			time.Sleep(time.Duration(c * float64(workUnit)))
		}
	})
	return time.Since(start)
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	P, Width       int
	T1, T4, T8     time.Duration
	Speedup4       float64
	Speedup8       float64
	PaperSpeedup4  float64
	PaperSpeedup8  float64
	PaperT1Seconds float64
}

// PaperTable1 holds the published numbers for comparison.
var PaperTable1 = []Table1Row{
	{P: 100, Width: 10, PaperT1Seconds: 33.9, PaperSpeedup4: 3.4, PaperSpeedup8: 6.4},
	{P: 200, Width: 10, PaperT1Seconds: 71.9, PaperSpeedup4: 3.4, PaperSpeedup8: 6.5},
	{P: 500, Width: 10, PaperT1Seconds: 207.0, PaperSpeedup4: 3.4, PaperSpeedup8: 6.5},
	{P: 1000, Width: 10, PaperT1Seconds: 455.9, PaperSpeedup4: 3.5, PaperSpeedup8: 6.6},
	{P: 100, Width: 20, PaperT1Seconds: 31.1, PaperSpeedup4: 3.5, PaperSpeedup8: 6.9},
	{P: 200, Width: 20, PaperT1Seconds: 69.6, PaperSpeedup4: 3.6, PaperSpeedup8: 7.0},
	{P: 500, Width: 20, PaperT1Seconds: 199.3, PaperSpeedup4: 3.6, PaperSpeedup8: 6.9},
	{P: 1000, Width: 20, PaperT1Seconds: 435.7, PaperSpeedup4: 3.6, PaperSpeedup8: 7.0},
}

// Table1 reruns the paper's speedup table. cost is the Work units per
// candidate test; rows selects a subset of PaperTable1 (nil = all).
func Table1(spec Spec, cost float64, rows []Table1Row) ([]Table1Row, error) {
	if rows == nil {
		rows = PaperTable1
	}
	out := make([]Table1Row, 0, len(rows))
	for _, row := range rows {
		r := row
		for _, sites := range []int{1, 4, 8} {
			s := spec
			s.Sites = sites
			elapsed, err := RunPrimes(s, r.P, r.Width, cost)
			if err != nil {
				return out, fmt.Errorf("p=%d width=%d sites=%d: %w", r.P, r.Width, sites, err)
			}
			switch sites {
			case 1:
				r.T1 = elapsed
			case 4:
				r.T4 = elapsed
			case 8:
				r.T8 = elapsed
			}
		}
		r.Speedup4 = float64(r.T1) / float64(r.T4)
		r.Speedup8 = float64(r.T1) / float64(r.T8)
		out = append(out, r)
	}
	return out, nil
}

// OverheadResult is the O-1 experiment outcome.
type OverheadResult struct {
	Seq      time.Duration
	SDVM     time.Duration
	Overhead float64 // (SDVM-Seq)/Seq
}

// Overhead compares a 1-site SDVM run against the stand-alone sequential
// program ([5] reports ≈3 %).
func Overhead(spec Spec, p, width int, cost float64) (OverheadResult, error) {
	seq := RunSeqPrimes(p, width, cost, spec.workUnit())
	s := spec
	s.Sites = 1
	sdvm, err := RunPrimes(s, p, width, cost)
	if err != nil {
		return OverheadResult{}, err
	}
	return OverheadResult{
		Seq:      seq,
		SDVM:     sdvm,
		Overhead: float64(sdvm-seq) / float64(seq),
	}, nil
}

// ChurnResult is the dynamic-entry/exit experiment outcome.
type ChurnResult struct {
	Static time.Duration // fixed cluster of Sites
	Churn  time.Duration // same, with one site joining and one leaving mid-run
	Joined bool          // the late joiner executed work
}

// Churn measures the cost/benefit of sites joining and leaving mid-run
// (paper §3.4): a run on N sites vs a run starting with N-1 sites where
// one site joins after startDelay and one signs off halfway.
func Churn(spec Spec, p, width int, cost float64) (ChurnResult, error) {
	s := spec
	elapsedStatic, err := RunPrimes(s, p, width, cost)
	if err != nil {
		return ChurnResult{}, err
	}

	// Churn run: start with Sites-1, join one later, sign one off.
	s.Sites = spec.Sites - 1
	if s.Sites < 1 {
		s.Sites = 1
	}
	c, err := NewCluster(s)
	if err != nil {
		return ChurnResult{}, err
	}
	defer c.Close()

	start := time.Now()
	prog, err := c.Daemons[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(p, width, cost)...)
	if err != nil {
		return ChurnResult{}, err
	}

	// A new site joins shortly after the run starts...
	time.Sleep(150 * time.Millisecond)
	lateCfg := daemon.Config{
		PhysAddr:  "bench-late",
		Network:   c.Fabric,
		WorkModel: exec.WorkSimulated,
		WorkUnit:  s.workUnit(),
		Window:    s.Window,
		Seed:      99,
	}
	late := daemon.New(lateCfg)
	if err := late.Join("bench-site-0"); err != nil {
		return ChurnResult{}, err
	}
	defer late.Kill()

	// ...and one of the original sites leaves a little later.
	if len(c.Daemons) > 1 {
		time.Sleep(150 * time.Millisecond)
		if err := c.Daemons[len(c.Daemons)-1].SignOff(); err != nil {
			return ChurnResult{}, err
		}
	}

	raw, ok := c.Daemons[0].WaitResult(prog, 30*time.Minute)
	if !ok {
		return ChurnResult{}, fmt.Errorf("bench: churn run did not terminate")
	}
	primes := workloads.ParsePrimesResult(raw)
	if len(primes) != p {
		return ChurnResult{}, fmt.Errorf("bench: churn run returned %d primes", len(primes))
	}
	return ChurnResult{
		Static: elapsedStatic,
		Churn:  time.Since(start),
		Joined: late.Exec.Executed() > 0,
	}, nil
}

// CrashResult is the crash-recovery experiment outcome.
type CrashResult struct {
	CrashFree   time.Duration
	WithCrash   time.Duration
	Recoveries  uint64
	Checkpoints uint64
}

// Crash measures the cost of losing one site mid-run with checkpointing
// enabled; the run must still produce the correct result.
func Crash(spec Spec, p, width int, cost float64) (CrashResult, error) {
	s := spec
	if s.CheckpointEvery == 0 {
		s.CheckpointEvery = 100 * time.Millisecond
	}
	if s.HeartbeatEvery == 0 {
		s.HeartbeatEvery = 50 * time.Millisecond
	}
	if s.RestartGrace == 0 {
		s.RestartGrace = 1500 * time.Millisecond
	}

	clean, err := RunPrimes(s, p, width, cost)
	if err != nil {
		return CrashResult{}, err
	}

	c, err := NewCluster(s)
	if err != nil {
		return CrashResult{}, err
	}
	defer c.Close()
	start := time.Now()
	prog, err := c.Daemons[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(p, width, cost)...)
	if err != nil {
		return CrashResult{}, err
	}
	time.Sleep(400 * time.Millisecond)
	victim := len(c.Daemons) - 1
	c.Fabric.KillSite(fmt.Sprintf("bench-site-%d", victim))
	c.Daemons[victim].Kill()

	raw, ok := c.Daemons[0].WaitResult(prog, 30*time.Minute)
	if !ok {
		return CrashResult{}, fmt.Errorf("bench: crash run did not terminate")
	}
	primes := workloads.ParsePrimesResult(raw)
	if len(primes) != p || primes[p-1] != workloads.NthPrime(p) {
		return CrashResult{}, fmt.Errorf("bench: crash run result wrong")
	}

	var rec, taken uint64
	for i, d := range c.Daemons {
		if i == victim {
			continue
		}
		rec += d.Ckpt.Recovered()
		taken += d.Ckpt.Taken()
	}
	return CrashResult{
		CrashFree:   clean,
		WithCrash:   time.Since(start),
		Recoveries:  rec,
		Checkpoints: taken,
	}, nil
}

// WindowResult is one A-2 latency-window measurement.
type WindowResult struct {
	Window  int
	Elapsed time.Duration
}

// WindowSweep measures the latency-hiding window W (paper: ≈5 is good)
// on the memory-bound matmul workload over a latency-injected network.
func WindowSweep(spec Spec, windows []int, n, grid int, cost float64) ([]WindowResult, error) {
	if spec.Link.Latency == 0 {
		spec.Link.Latency = 2 * time.Millisecond // remote reads must hurt
	}
	var out []WindowResult
	for _, w := range windows {
		s := spec
		s.Window = w
		c, err := NewCluster(s)
		if err != nil {
			return out, err
		}
		elapsed, raw, err := c.Run(workloads.MatMulApp(), workloads.MatMulArgs(n, grid, cost)...)
		c.Close()
		if err != nil {
			return out, err
		}
		want := workloads.SeqMatMul(n, grid, 0, func(float64) {})
		if diff := mthread.ParseF64(raw) - want; diff > 1e-6 || diff < -1e-6 {
			return out, fmt.Errorf("bench: window sweep checksum wrong")
		}
		out = append(out, WindowResult{Window: w, Elapsed: elapsed})
	}
	return out, nil
}

// ScalePoint is one point of the scalability curve.
type ScalePoint struct {
	Sites   int
	Elapsed time.Duration
	Speedup float64
}

// ScaleCurve measures the speedup over a range of cluster sizes — the
// paper's scalability claim (goal 5, §2.2: "the cluster is essentially
// scalable to any desired size").
func ScaleCurve(spec Spec, sizes []int, p, width int, cost float64) ([]ScalePoint, error) {
	var out []ScalePoint
	var t1 time.Duration
	for _, n := range sizes {
		s := spec
		s.Sites = n
		elapsed, err := RunPrimes(s, p, width, cost)
		if err != nil {
			return out, err
		}
		if n == 1 || t1 == 0 {
			t1 = elapsed
		}
		out = append(out, ScalePoint{Sites: n, Elapsed: elapsed, Speedup: float64(t1) / float64(elapsed)})
	}
	return out, nil
}

// SpeedShare is one site's share of a heterogeneous-speed run.
type SpeedShare struct {
	Site     types.SiteID
	Speed    float64
	Executed uint64
}

// SpeedsResult is the heterogeneous-speed load-balancing measurement.
type SpeedsResult struct {
	Elapsed time.Duration
	Shares  []SpeedShare
}

// HeterogeneousSpeeds runs primes on sites of different relative speeds
// and reports who executed how much — the paper's load-balancing claim:
// "sites having less computing power are relieved while more powerful
// sites get more work" (§3.5).
func HeterogeneousSpeeds(spec Spec, speeds []float64, p, width int, cost float64) (SpeedsResult, error) {
	fab := inproc.New(spec.Link)
	defer fab.Close()
	var ds []*daemon.Daemon
	defer func() {
		for _, d := range ds {
			d.Kill()
		}
	}()
	for i, speed := range speeds {
		cfg := daemon.Config{
			PhysAddr:  fmt.Sprintf("speed-site-%d", i),
			Network:   fab,
			WorkModel: exec.WorkSimulated,
			WorkUnit:  spec.workUnit(),
			Window:    spec.Window,
			Speed:     speed,
			Seed:      int64(i + 1),
		}
		d := daemon.New(cfg)
		var err error
		if i == 0 {
			err = d.Bootstrap()
		} else {
			err = d.Join("speed-site-0")
		}
		if err != nil {
			return SpeedsResult{}, err
		}
		ds = append(ds, d)
	}

	start := time.Now()
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(p, width, cost)...)
	if err != nil {
		return SpeedsResult{}, err
	}
	raw, ok := ds[0].WaitResult(prog, 30*time.Minute)
	if !ok {
		return SpeedsResult{}, fmt.Errorf("bench: speeds run did not terminate")
	}
	if got := workloads.ParsePrimesResult(raw); len(got) != p {
		return SpeedsResult{}, fmt.Errorf("bench: speeds run wrong result")
	}
	res := SpeedsResult{Elapsed: time.Since(start)}
	for i, d := range ds {
		res.Shares = append(res.Shares, SpeedShare{
			Site:     d.Self(),
			Speed:    speeds[i],
			Executed: d.Exec.Executed(),
		})
	}
	return res, nil
}

// SecurityResult is the A-3 encryption on/off measurement.
type SecurityResult struct {
	Plain, Encrypted time.Duration
}

// Security measures the security manager's cost (paper §4: disable it
// "in favor of a performance gain" inside trusted clusters).
func Security(spec Spec, p, width int, cost float64) (SecurityResult, error) {
	s := spec
	s.Secret = ""
	plain, err := RunPrimes(s, p, width, cost)
	if err != nil {
		return SecurityResult{}, err
	}
	s.Secret = "bench-secret"
	enc, err := RunPrimes(s, p, width, cost)
	if err != nil {
		return SecurityResult{}, err
	}
	return SecurityResult{Plain: plain, Encrypted: enc}, nil
}

// HeteroResult is the on-the-fly compilation experiment outcome.
type HeteroResult struct {
	Homogeneous time.Duration
	Hetero      time.Duration
	Compiles    uint64
}

// Hetero measures the cost of a cluster where every site has a distinct
// platform, forcing source distribution and on-the-fly compilation
// (paper §3.4: "fast enough not to slow the system too much").
func Hetero(spec Spec, p, width int, cost float64, compileCost time.Duration) (HeteroResult, error) {
	s := spec
	s.DistinctPlatforms = false
	homo, err := RunPrimes(s, p, width, cost)
	if err != nil {
		return HeteroResult{}, err
	}

	s.DistinctPlatforms = true
	s.CompileCost = compileCost
	c, err := NewCluster(s)
	if err != nil {
		return HeteroResult{}, err
	}
	defer c.Close()
	elapsed, raw, err := c.Run(workloads.PrimesApp(), workloads.PrimesArgs(p, width, cost)...)
	if err != nil {
		return HeteroResult{}, err
	}
	if got := workloads.ParsePrimesResult(raw); len(got) != p {
		return HeteroResult{}, fmt.Errorf("bench: hetero run returned %d primes", len(got))
	}
	var compiles uint64
	for _, d := range c.Daemons {
		compiles += d.Code.Stats().Compiles
	}
	return HeteroResult{Homogeneous: homo, Hetero: elapsed, Compiles: compiles}, nil
}
