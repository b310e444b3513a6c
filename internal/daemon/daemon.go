// Package daemon assembles the SDVM managers into one site daemon — the
// process "to be run on every participating machine" (paper §4, Figure 3).
//
// The daemon owns the manager stack in the paper's layering:
//
//	execution layer:     processing, scheduling, code, attraction memory, I/O
//	maintenance layer:   cluster, program, site, crash management
//	communication layer: message (bus), security, network
//
// and the lifecycle: bootstrap or sign-on at start, application
// submission, controlled sign-off or abrupt kill (for crash experiments).
package daemon

import (
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/accounting"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/code"
	"repro/internal/exec"
	"repro/internal/gossip"
	"repro/internal/iomgr"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/mthread"
	"repro/internal/netmgr"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/security"
	"repro/internal/sitemgr"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config assembles a site daemon.
type Config struct {
	// PhysAddr is the network listen address ("host:port" for tcp,
	// any unique name for inproc).
	PhysAddr string
	// Network carries the datagrams (tcp or inproc).
	Network transport.Network
	// Security seals inter-site traffic; nil means plaintext.
	Security security.Layer

	// Platform is the site's simulated platform id.
	Platform types.PlatformID
	// Speed is the relative processing speed (1.0 = reference).
	Speed float64
	// Reliable marks the site as part of the reliable core
	// (paper §2.2): peers prefer it for checkpoint storage.
	Reliable bool
	// Window is the processing manager's latency-hiding window.
	Window int
	// WorkModel selects real or simulated computation.
	WorkModel exec.WorkModel
	// WorkUnit is the wall-clock span of Work(1.0) at speed 1.0.
	WorkUnit time.Duration
	// CompileCost simulates on-the-fly compilation of one microthread.
	CompileCost time.Duration
	// Checkpoint configures crash management; zero disables it.
	Checkpoint checkpoint.Config
	// LoadReportEvery is the site manager's statistics period, which is
	// also the gossip round (default 100ms).
	LoadReportEvery time.Duration
	// RestartGrace is the submitter-side last-resort recovery: if a
	// crash was declared and a locally submitted program has not
	// terminated this long afterwards, its entry frame is re-fired.
	// Checkpoints plus sender-side logs recover most crashes without
	// it, but a frame chain created and consumed entirely on the dead
	// site between two checkpoints is unrecoverable from logs alone
	// (the classic orphan problem of uncoordinated checkpointing);
	// deterministic re-execution from the root closes that hole.
	// 0 = default (5s); negative = disabled.
	RestartGrace time.Duration
	// TraceCapacity enables the event tracer with a ring of this many
	// events per site (0 = tracing off). The tracer records the career
	// of every microframe (paper Figures 4/5).
	TraceCapacity int
	// Metrics enables the per-daemon metrics registry (counters, gauges,
	// latency histograms across every manager). Off by default: a site
	// without a registry pays only a nil check per event.
	Metrics bool
	// MetricsAddr optionally serves the registry as expvar-style JSON
	// over HTTP ("host:port"). A non-empty address implies Metrics.
	MetricsAddr string
	// Registry resolves microthread names; nil means mthread.Global.
	Registry *mthread.Registry
	// Seed makes scheduling tie-breaks deterministic in tests.
	Seed int64
}

// Daemon is one running SDVM site.
type Daemon struct {
	cfg Config

	Net   *netmgr.Manager
	Bus   *msgbus.Bus
	CM    *cluster.Manager
	PM    *program.Manager
	Code  *code.Manager
	Sched *sched.Manager
	Mem   *memory.Manager
	IO    *iomgr.Manager
	Exec  *exec.Manager
	Site  *sitemgr.Manager
	Ckpt  *checkpoint.Manager
	Acct  *accounting.Manager
	// Gossip is the membership and load dissemination layer.
	Gossip *gossip.Manager
	Trace  *trace.Tracer
	// Metrics is the site's registry; nil unless Config.Metrics (or
	// MetricsAddr) enabled it.
	Metrics *metrics.Registry

	// metricsSrv serves the registry over HTTP when MetricsAddr is set.
	metricsSrv *http.Server

	mu          sync.Mutex
	outSubs     map[types.ProgramID][]chan string
	submissions map[types.ProgramID]submission
	started     bool
	stopped     bool
}

// submission remembers what Submit installed, for restart recovery.
type submission struct {
	app  App
	args [][]byte
}

type busResolver struct{ cm *cluster.Manager }

func (r *busResolver) PhysAddr(id types.SiteID) (string, error) { return r.cm.PhysAddr(id) }
func (r *busResolver) SiteIDs() []types.SiteID                  { return r.cm.SiteIDs() }

// siteSeed derives the per-site RNG seed for retry jitter (memory
// fetches, help-request polls). An explicit cfg.Seed wins so chaos and
// benchmark runs are reproducible; otherwise the listen address is hashed
// so distinct sites never share a jitter stream by accident.
func siteSeed(cfg Config) int64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.PhysAddr))
	seed := int64(h.Sum64())
	if seed == 0 {
		seed = 1
	}
	return seed
}

// New wires a daemon; Start (or Bootstrap/Join) brings it onto the
// network.
func New(cfg Config) *Daemon {
	if cfg.Security == nil {
		cfg.Security = security.Plaintext{}
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1.0
	}
	if cfg.Registry == nil {
		cfg.Registry = mthread.Global
	}

	if cfg.RestartGrace == 0 {
		cfg.RestartGrace = 5 * time.Second
	}
	d := &Daemon{
		cfg:         cfg,
		outSubs:     make(map[types.ProgramID][]chan string),
		submissions: make(map[types.ProgramID]submission),
	}

	if cfg.Metrics || cfg.MetricsAddr != "" {
		d.Metrics = metrics.NewRegistry()
	}

	resolver := &busResolver{}
	d.Net = netmgr.New(cfg.Network, cfg.Security, func(datagram []byte) { d.Bus.OnDatagram(datagram) })
	d.Bus = msgbus.New(resolver, d.Net)
	d.Net.SetMetrics(d.Metrics)
	d.Bus.SetMetrics(d.Metrics)
	d.CM = cluster.New(d.Bus, cluster.Config{
		PhysAddr: cfg.PhysAddr,
		Platform: cfg.Platform,
		Speed:    cfg.Speed,
		Reliable: cfg.Reliable,
		Seed:     cfg.Seed,
	})
	resolver.cm = d.CM

	d.PM = program.New(d.Bus)
	d.Code = code.New(d.Bus, d.CM, code.Config{
		Platform:    cfg.Platform,
		CompileCost: cfg.CompileCost,
		Registry:    cfg.Registry,
	})
	d.Code.SetCodeHomeFn(d.PM.CodeHome)

	d.Sched = sched.New(d.Bus, d.CM, d.Code, sched.Config{Seed: siteSeed(cfg)})
	d.Mem = memory.New(d.Bus, d.Sched.Enqueue)
	d.Mem.SetSeed(siteSeed(cfg))
	d.Sched.SetAdopter(d.Mem)
	d.Sched.SetProgramHooks(d.PM.Known, d.PM.EnsureKnown)

	d.IO = iomgr.New(d.Bus)
	d.IO.SetFrontendSite(d.PM.Frontend)
	d.IO.SetSink(d.deliverOutput)

	d.Exec = exec.New(d.Sched, d.Mem, d.Bus.Self, d.IO.Output, d.exitProgram, exec.Config{
		Window:   cfg.Window,
		Model:    cfg.WorkModel,
		WorkUnit: cfg.WorkUnit,
		Speed:    cfg.Speed,
	})
	// Membership: every roster change feeds the gossip table, which
	// spreads joins, sign-offs, crash verdicts and load statistics. The
	// seed is decorrelated from the scheduler's so the two random
	// streams never walk in lockstep.
	d.Gossip = gossip.New(d.Bus, d.CM, gossip.Config{
		Seed: siteSeed(cfg) ^ 0x676f7373, // "goss"
	})
	d.Site = sitemgr.New(d.Bus, d.CM, d.Gossip, d.Sched, d.Exec, d.Mem, d.IO, d.PM,
		cfg.LoadReportEvery, cfg.Window)

	d.Ckpt = checkpoint.New(d.Bus, d.CM, d.Mem, d.Sched, d.PM, d.Gossip.Accuse, cfg.Checkpoint)

	if cfg.TraceCapacity > 0 {
		d.Trace = trace.New(cfg.TraceCapacity, d.Bus.Self)
		d.Mem.SetTracer(d.Trace)
		d.Sched.SetTracer(d.Trace)
		d.Exec.SetTracer(d.Trace)
	}

	// Metrics wiring mirrors the tracer: every manager receives the same
	// per-daemon registry (a nil registry disables collection everywhere).
	d.Sched.SetMetrics(d.Metrics)
	d.Mem.SetMetrics(d.Metrics)
	d.Exec.SetMetrics(d.Metrics)
	d.Ckpt.SetMetrics(d.Metrics)
	d.Site.SetMetrics(d.Metrics)

	// Accounting (paper §2.2/§6): meter execution, Work, parameter
	// traffic, and frontend output per program.
	d.Acct = accounting.New(d.Bus, d.CM)
	d.Exec.SetAccountant(d.Acct.RecordExecution)
	d.Exec.SetInput(d.IO.Input)
	d.Mem.SetTrafficHook(d.Acct.RecordTraffic)
	d.IO.SetOutputHook(d.Acct.RecordOutput)

	// Crash-recovery replay: when a peer is declared crashed, replay the
	// sender-side logs for programs still running ([4]), and arm the
	// submitter-side restart watchdog for locally submitted programs.
	d.CM.OnLeave(func(id types.SiteID, crashed bool) {
		// Whichever way the peer went, its connection and send state
		// go with it; a site rejoining at the address is dialed anew.
		if addr := d.CM.VacatedAddr(id); addr != "" {
			d.Net.Forget(addr)
		}
		if !crashed {
			// Graceful sign-off still severs coherence ties: replicas the
			// leaver served move with evacuation, not with the leaver's
			// identity, and its copyset entries would stall future
			// writes' invalidation round-trips. (OnSiteCrashed does the
			// same purge itself on the crash path.)
			d.Mem.DropSiteReplicas(id)
			return
		}
		go d.Mem.OnSiteCrashed(id, func(p types.ProgramID) bool {
			return !d.PM.Terminated(p)
		})
		if d.cfg.RestartGrace > 0 {
			d.armRestartWatchdogs()
		}
	})

	// Program termination GC: every manager drops the dead program.
	d.PM.OnTerminate(func(prog types.ProgramID, result []byte) {
		d.mu.Lock()
		delete(d.submissions, prog)
		d.mu.Unlock()
		d.Sched.DropProgram(prog)
		d.Mem.DropProgram(prog)
		d.Code.DropProgram(prog)
		d.Ckpt.DropProgram(prog)
		d.closeOutputSubs(prog)
	})

	return d
}

// listenAndRun binds the network and starts every manager loop.
func (d *Daemon) listenAndRun() error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return fmt.Errorf("daemon: already started")
	}
	d.started = true
	d.mu.Unlock()

	addr, err := d.Net.Listen(d.cfg.PhysAddr)
	if err != nil {
		return fmt.Errorf("daemon: listen: %w", err)
	}
	// TCP ":0"-style requests resolve to a concrete port only now; the
	// cluster list must carry the reachable address.
	d.CM.SetPhysAddr(addr)
	d.Bus.Start()
	if d.cfg.MetricsAddr != "" {
		if err := d.serveMetrics(d.cfg.MetricsAddr); err != nil {
			d.Bus.Close()
			d.Net.Close()
			return err
		}
	}
	return nil
}

// serveMetrics exposes the registry as JSON over HTTP, for scraping a
// live daemon without going through the bus.
func (d *Daemon) serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("daemon: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(d.Metrics))
	d.metricsSrv = &http.Server{Handler: mux}
	go func() { _ = d.metricsSrv.Serve(ln) }()
	return nil
}

// closeMetricsSrv stops the HTTP endpoint, if one was started.
func (d *Daemon) closeMetricsSrv() {
	if d.metricsSrv != nil {
		_ = d.metricsSrv.Close()
	}
}

// Bootstrap starts this daemon as the first site of a new cluster.
func (d *Daemon) Bootstrap() error {
	if err := d.listenAndRun(); err != nil {
		return err
	}
	d.CM.Bootstrap()
	d.runExecution()
	return nil
}

// Join starts this daemon and signs on via a known site's address.
func (d *Daemon) Join(contactAddr string) error {
	if err := d.listenAndRun(); err != nil {
		return err
	}
	if err := d.CM.Join(contactAddr, 10*time.Second); err != nil {
		d.Net.Close()
		return err
	}
	d.runExecution()
	return nil
}

func (d *Daemon) runExecution() {
	// The local id and the sign-on roster snapshot exist now; gossip
	// seeds its row table from them and starts announcing this site
	// with the next statistics tick.
	d.Gossip.Start()
	d.Sched.Start()
	d.Exec.Start()
	d.Site.Start()
	d.Ckpt.Start()
}

// Self returns this site's logical id.
func (d *Daemon) Self() types.SiteID { return d.Bus.Self() }

// Status snapshots the local managers.
func (d *Daemon) Status() sitemgr.Status { return d.Site.Status() }

// ---------------------------------------------------------------------------
// Application submission.

// AppThread describes one microthread of an application.
type AppThread struct {
	// Index is the thread's stable index within the program.
	Index uint32
	// FuncName is the registry name of the implementation.
	FuncName string
	// SrcSize models the source artifact size in bytes (0 = small).
	SrcSize int
}

// App describes a submittable application.
type App struct {
	// Name labels the program.
	Name string
	// Threads lists every microthread. Thread 0 is the entry point.
	Threads []AppThread
}

// Submit installs app's code on this site (making it the program's code
// home), registers the program cluster-wide, and fires the entry frame
// with the given arguments. It returns the program id.
func (d *Daemon) Submit(app App, args ...[]byte) (types.ProgramID, error) {
	if len(app.Threads) == 0 {
		return 0, fmt.Errorf("daemon: app %q has no microthreads", app.Name)
	}
	prog := d.PM.NewProgram()
	for _, t := range app.Threads {
		tid := types.ThreadID{Program: prog, Index: t.Index}
		d.Code.InstallSource(tid, t.FuncName, t.SrcSize)
	}
	// The submitting site is the code home, the frontend, and (paper §4)
	// implicitly a code distribution site.
	d.CM.SetCodeDist(true)
	d.PM.Register(wire.ProgramRegister{
		Program:  prog,
		CodeHome: d.Bus.Self(),
		Frontend: d.Bus.Self(),
		Name:     app.Name,
	})

	d.mu.Lock()
	d.submissions[prog] = submission{app: app, args: args}
	d.mu.Unlock()

	if err := d.fireEntry(prog, app, args); err != nil {
		return prog, err
	}
	return prog, nil
}

// fireEntry creates and feeds the program's entry frame.
func (d *Daemon) fireEntry(prog types.ProgramID, app App, args [][]byte) error {
	entry := types.ThreadID{Program: prog, Index: app.Threads[0].Index}
	frameID := d.Mem.NewFrame(entry, len(args), types.PriorityNormal, 0)
	for i, arg := range args {
		if err := d.Mem.Send(wire.Target{Addr: frameID, Slot: int32(i)}, arg); err != nil {
			return fmt.Errorf("daemon: submit arg %d: %w", i, err)
		}
	}
	return nil
}

// armRestartWatchdogs schedules the last-resort restart for every
// locally submitted program that is still running after a crash.
func (d *Daemon) armRestartWatchdogs() {
	d.mu.Lock()
	progs := make(map[types.ProgramID]submission, len(d.submissions))
	for prog, sub := range d.submissions {
		progs[prog] = sub
	}
	grace := d.cfg.RestartGrace
	d.mu.Unlock()

	for prog, sub := range progs {
		if d.PM.Terminated(prog) {
			continue
		}
		prog, sub := prog, sub
		time.AfterFunc(grace, func() {
			d.mu.Lock()
			stopped := d.stopped
			d.mu.Unlock()
			if stopped || d.PM.Terminated(prog) {
				return
			}
			// Deterministic re-execution from the root: stale results
			// land on consumed frames and are dropped; the first Exit
			// wins either way.
			d.IO.Output(prog, "sdvm: crash recovery stalled; re-executing from the entry frame")
			_ = d.fireEntry(prog, sub.app, sub.args)
		})
	}
}

// WaitResult blocks until prog terminates and returns its result.
func (d *Daemon) WaitResult(prog types.ProgramID, timeout time.Duration) ([]byte, bool) {
	return d.PM.WaitResult(prog, timeout)
}

// SubscribeOutput returns a channel of the program's frontend output
// (only useful on the program's frontend site). The channel closes when
// the program terminates.
func (d *Daemon) SubscribeOutput(prog types.ProgramID) <-chan string {
	ch := make(chan string, 256)
	d.mu.Lock()
	d.outSubs[prog] = append(d.outSubs[prog], ch)
	d.mu.Unlock()
	return ch
}

func (d *Daemon) deliverOutput(prog types.ProgramID, text string) {
	d.mu.Lock()
	subs := append([]chan string{}, d.outSubs[prog]...)
	d.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- text:
		default: // slow consumer: drop rather than stall the cluster
		}
	}
}

func (d *Daemon) closeOutputSubs(prog types.ProgramID) {
	d.mu.Lock()
	subs := d.outSubs[prog]
	delete(d.outSubs, prog)
	d.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

func (d *Daemon) exitProgram(prog types.ProgramID, result []byte) {
	d.PM.Terminate(prog, result)
}

// ---------------------------------------------------------------------------
// Lifecycle end.

// SignOff leaves the cluster in a controlled manner (paper §3.4): all
// local state is relocated before the daemon goes away.
func (d *Daemon) SignOff() error {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return nil
	}
	d.stopped = true
	d.mu.Unlock()

	d.closeMetricsSrv()
	d.Ckpt.Close()
	err := d.Site.SignOff()
	// Flush the goodbye before cutting links: a Ping/Pong round-trip per
	// peer proves (FIFO per connection, FIFO bus inbox) that everything
	// sent earlier has been dispatched there. O(fanout): only the
	// farewell burst targets and the sign-off successor (which just
	// received our queue and memory) saw traffic that must land before
	// teardown; the tombstone reaches everyone else epidemically.
	d.flushPeers(append(d.Gossip.BurstPeers(), d.Site.Successor()))
	d.Mem.Close()
	d.Bus.Close()
	d.Net.Close()
	return err
}

// flushPeers performs a bounded Ping round-trip to every given peer and
// reports how many answered. Both transports deliver in order per
// connection and the bus inbox preserves arrival order, so a matching
// Pong guarantees the peer has already dispatched every message this
// site sent before the Ping — the farewell digest included. An
// unreachable or garbled peer is skipped: it gets the goodbye (or a
// crash declaration) through the normal paths.
func (d *Daemon) flushPeers(peers []types.SiteID) int {
	self := d.Bus.Self()
	flushed := 0
	for i, id := range peers {
		if id == self || !id.Valid() {
			continue
		}
		nonce := uint64(i) + 1
		reply, err := d.Bus.Request(id, types.MgrCluster, types.MgrCluster,
			&wire.Ping{Nonce: nonce}, 250*time.Millisecond)
		if err != nil {
			continue
		}
		if pong, ok := reply.Payload.(*wire.Pong); ok && pong.Nonce == nonce {
			flushed++
		}
	}
	return flushed
}

// Kill stops the daemon abruptly — no relocation, no goodbye — to
// emulate a crash for the recovery experiments.
func (d *Daemon) Kill() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	d.mu.Unlock()

	d.closeMetricsSrv()
	d.Net.Close()
	d.Bus.Close()
	d.Mem.Close()
	d.Sched.Close()
	d.Exec.Wait()
	d.Site.Close()
	d.Ckpt.Close()
	d.IO.CloseAll()
}
