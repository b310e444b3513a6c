// Package sdvm is a Go reproduction of the Self Distributing Virtual
// Machine (SDVM) — "The SDVM: an approach for future adaptive computer
// clusters", Haase/Eschmann/Waldschmidt, IPPS/IPDPS 2005.
//
// The SDVM turns a set of commodity machines into one parallel machine:
// every participant runs a site daemon; applications are partitioned into
// microthreads (sequential code fragments) triggered by microframes
// (dataflow argument containers); data, code, and frames migrate
// automatically through a COMA-style attraction memory; scheduling is
// fully decentralized (idle sites send help requests); sites may join and
// leave at runtime; crashes are survived through checkpoints and
// sender-side message logs.
//
// # Quick start
//
//	sdvm.Register("hello.start", func(ctx sdvm.Context) error {
//	    ctx.Output("hello from " + ctx.Site().String())
//	    ctx.Exit(nil)
//	    return nil
//	})
//
//	cluster, _ := sdvm.NewLocalCluster(4, sdvm.Options{})
//	defer cluster.Close()
//
//	app := sdvm.App{Name: "hello", Threads: []sdvm.AppThread{{Index: 0, FuncName: "hello.start"}}}
//	prog, _ := cluster.Sites[0].Submit(app)
//	result, _ := cluster.Sites[0].Wait(prog, time.Minute)
//	_ = result
//
// Real deployments run one Site per machine over TCP: the first site
// calls Bootstrap, every other site Join with any member's address.
package sdvm

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/daemon"
	"repro/internal/exec"
	"repro/internal/mthread"
	"repro/internal/security"
	"repro/internal/sitemgr"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/tcp"
	"repro/internal/types"
	"repro/internal/wire"
)

// Re-exported identifier types: see the internal/types package for the
// full documentation.
type (
	// SiteID is a site's cluster-unique logical id.
	SiteID = types.SiteID
	// ProgramID identifies one running application.
	ProgramID = types.ProgramID
	// GlobalAddr addresses an object in the cluster-wide memory.
	GlobalAddr = types.GlobalAddr
	// FrameID identifies a microframe.
	FrameID = types.FrameID
	// PlatformID is a (simulated) hardware/OS platform tag.
	PlatformID = types.PlatformID
	// Priority orders microframes for scheduling.
	Priority = types.Priority
	// Target names a parameter slot of a destination microframe.
	Target = wire.Target
	// Context is the instruction set available to a microthread.
	Context = mthread.Context
	// Func is a microthread implementation.
	Func = mthread.Func
	// App describes a submittable application.
	App = daemon.App
	// AppThread describes one microthread of an App.
	AppThread = daemon.AppThread
	// Status is a snapshot of one site's managers.
	Status = sitemgr.Status
	// Usage is one resource account (accounting manager).
	Usage = wire.Usage
)

// Standard priorities.
const (
	PriorityLow      = types.PriorityLow
	PriorityNormal   = types.PriorityNormal
	PriorityHigh     = types.PriorityHigh
	PriorityCritical = types.PriorityCritical
)

// Register binds a microthread implementation to a stable name in the
// process-wide registry. Call it from init (or before starting sites);
// every process of a deployment must register the same names.
func Register(name string, fn Func) { mthread.Global.Register(name, fn) }

// Options configures one SDVM site. The zero value gives a plaintext
// TCP site on an ephemeral local port with the paper's defaults
// (latency-hiding window 5, FIFO local dispatch); help replies surrender
// the oldest non-critical frame.
type Options struct {
	// Addr is the listen address: "host:port" for TCP (default
	// "127.0.0.1:0"), any unique name for an in-process Network.
	Addr string
	// Network overrides the transport (e.g. an inproc fabric for
	// simulations). Nil means real TCP.
	Network transport.Network
	// Secret, when non-empty, enables AES-GCM encryption of all
	// inter-site traffic with keys derived from it (paper §4, security
	// manager). Every site of a cluster must use the same secret.
	Secret string

	// Platform tags the site's simulated platform; sites only execute
	// binaries matching their platform and compile from source
	// otherwise (paper §3.4).
	Platform PlatformID
	// Speed is the relative processing speed (default 1.0).
	Speed float64
	// Reliable marks this site as part of the reliable core
	// (paper §2.2): peers prefer it for checkpoint storage, so crashes
	// of unsafe sites recover from trustworthy machines.
	Reliable bool
	// Window is the latency-hiding window (default 5, the paper's
	// empirically good value).
	Window int
	// SimulatedWork makes Context.Work sleep instead of burning CPU,
	// so large clusters can be hosted on few cores (see DESIGN.md).
	SimulatedWork bool
	// WorkUnit is the wall-clock span of Work(1.0) at speed 1.0
	// (default 1ms).
	WorkUnit time.Duration
	// CompileCost simulates on-the-fly compilation of one microthread.
	CompileCost time.Duration

	// CheckpointEvery enables periodic checkpointing (0 = off).
	CheckpointEvery time.Duration
	// HeartbeatEvery enables crash detection (0 = off).
	HeartbeatEvery time.Duration

	// TraceCapacity enables the per-site event tracer with a ring of
	// this many events (0 = off); see Site.Daemon.Trace and the trace
	// package — the observable form of the paper's Figures 4/5.
	TraceCapacity int

	// Metrics enables the per-site metrics registry (counters, gauges
	// and latency histograms for every manager); see Site.Daemon.Metrics
	// and `sdvmstat -metrics`.
	Metrics bool
	// MetricsAddr additionally serves the registry as JSON over HTTP at
	// this address ("host:port"). Implies Metrics.
	MetricsAddr string

	// Seed makes scheduling tie-breaks reproducible.
	Seed int64
}

func (o Options) daemonConfig() (daemon.Config, error) {
	net := o.Network
	if net == nil {
		net = tcp.New()
	}
	addr := o.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var sec security.Layer = security.Plaintext{}
	if o.Secret != "" {
		l, err := security.NewAESGCM(o.Secret)
		if err != nil {
			return daemon.Config{}, err
		}
		sec = l
	}
	model := exec.WorkReal
	if o.SimulatedWork {
		model = exec.WorkSimulated
	}
	return daemon.Config{
		PhysAddr:    addr,
		Network:     net,
		Security:    sec,
		Platform:    o.Platform,
		Speed:       o.Speed,
		Reliable:    o.Reliable,
		Window:      o.Window,
		WorkModel:   model,
		WorkUnit:    o.WorkUnit,
		CompileCost: o.CompileCost,
		Checkpoint: checkpoint.Config{
			Interval:       o.CheckpointEvery,
			HeartbeatEvery: o.HeartbeatEvery,
		},
		TraceCapacity: o.TraceCapacity,
		Metrics:       o.Metrics,
		MetricsAddr:   o.MetricsAddr,
		Seed:          o.Seed,
	}, nil
}

// Site is one running SDVM daemon.
type Site struct {
	// Daemon exposes the underlying managers for advanced use and
	// diagnostics.
	Daemon *daemon.Daemon
}

// Bootstrap starts the first site of a new cluster.
func Bootstrap(opts Options) (*Site, error) {
	cfg, err := opts.daemonConfig()
	if err != nil {
		return nil, err
	}
	d := daemon.New(cfg)
	if err := d.Bootstrap(); err != nil {
		return nil, err
	}
	return &Site{Daemon: d}, nil
}

// Join starts a site and signs on to an existing cluster via the
// physical address of any current member.
func Join(contactAddr string, opts Options) (*Site, error) {
	cfg, err := opts.daemonConfig()
	if err != nil {
		return nil, err
	}
	d := daemon.New(cfg)
	if err := d.Join(contactAddr); err != nil {
		return nil, err
	}
	return &Site{Daemon: d}, nil
}

// ID returns the site's logical id.
func (s *Site) ID() SiteID { return s.Daemon.Self() }

// Submit installs and starts an application on the cluster; this site
// becomes its code home and frontend.
func (s *Site) Submit(app App, args ...[]byte) (ProgramID, error) {
	return s.Daemon.Submit(app, args...)
}

// Wait blocks until the program terminates anywhere in the cluster and
// returns its result. ok is false on timeout (timeout<=0 waits forever).
func (s *Site) Wait(prog ProgramID, timeout time.Duration) (result []byte, ok bool) {
	return s.Daemon.WaitResult(prog, timeout)
}

// Output returns a channel of the program's frontend output; it closes
// when the program terminates. Meaningful on the submitting site.
func (s *Site) Output(prog ProgramID) <-chan string {
	return s.Daemon.SubscribeOutput(prog)
}

// Status snapshots the local managers.
func (s *Site) Status() Status { return s.Daemon.Status() }

// SetInputProvider installs this site's frontend input source: it
// answers microthreads' Input calls for programs submitted here
// (paper §4: "the I/O manager sends all output and input requests to
// the front end").
func (s *Site) SetInputProvider(f func(prog ProgramID, prompt string) (string, bool)) {
	s.Daemon.IO.SetInputProvider(f)
}

// Usage returns the cluster-wide resource account of a program (the
// paper's §2.2/§6 accounting proposal): the aggregated total and the
// per-site breakdown.
func (s *Site) Usage(prog ProgramID) (total Usage, perSite []Usage) {
	return s.Daemon.Acct.ClusterUsage(prog)
}

// SignOff leaves the cluster in a controlled manner, relocating every
// local microframe and memory object first (paper §3.4).
func (s *Site) SignOff() error { return s.Daemon.SignOff() }

// Kill stops the site abruptly, as a crash would (recovery experiments).
func (s *Site) Kill() { s.Daemon.Kill() }

// LocalCluster hosts n sites inside this process on a virtual network —
// the configuration used by the examples and the benchmark harness.
type LocalCluster struct {
	Fabric *inproc.Fabric
	Sites  []*Site
}

// NewLocalCluster builds an n-site in-process cluster. The sites share
// opts except for the listen address; SimulatedWork defaults to on
// (virtual-parallel Work even on few cores).
func NewLocalCluster(n int, opts Options) (*LocalCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sdvm: cluster size must be positive")
	}
	fab := inproc.New(inproc.LinkProfile{})
	lc := &LocalCluster{Fabric: fab}
	for i := 0; i < n; i++ {
		o := opts
		o.Network = fab
		o.Addr = fmt.Sprintf("site-%d", i)
		o.SimulatedWork = true
		if o.Seed == 0 {
			o.Seed = int64(i + 1)
		}
		var (
			s   *Site
			err error
		)
		if i == 0 {
			s, err = Bootstrap(o)
		} else {
			s, err = Join("site-0", o)
		}
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("sdvm: site %d: %w", i, err)
		}
		lc.Sites = append(lc.Sites, s)
	}
	return lc, nil
}

// Close kills every site and tears the virtual network down.
func (lc *LocalCluster) Close() {
	for _, s := range lc.Sites {
		s.Kill()
	}
	lc.Fabric.Close()
}

// Parameter encoding helpers (re-exported from the microthread API).

// U64 encodes an unsigned integer parameter.
func U64(v uint64) []byte { return mthread.U64(v) }

// ParseU64 decodes an unsigned integer parameter.
func ParseU64(b []byte) uint64 { return mthread.ParseU64(b) }

// I64 encodes a signed integer parameter.
func I64(v int64) []byte { return mthread.I64(v) }

// ParseI64 decodes a signed integer parameter.
func ParseI64(b []byte) int64 { return mthread.ParseI64(b) }

// F64 encodes a float parameter.
func F64(v float64) []byte { return mthread.F64(v) }

// ParseF64 decodes a float parameter.
func ParseF64(b []byte) float64 { return mthread.ParseF64(b) }

// U64s encodes a vector of unsigned integers.
func U64s(vs []uint64) []byte { return mthread.U64s(vs) }

// ParseU64s decodes a vector of unsigned integers.
func ParseU64s(b []byte) []uint64 { return mthread.ParseU64s(b) }

// TargetBytes encodes a Target so it can travel as a parameter.
func TargetBytes(t Target) []byte { return mthread.TargetBytes(t) }

// ParseTarget decodes a Target parameter.
func ParseTarget(b []byte) Target { return mthread.ParseTarget(b) }
