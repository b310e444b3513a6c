// Package exec implements the SDVM's processing manager (paper §4).
//
// "The processing manager is responsible for the execution of
// microthreads. If it is idle, it requests a pair of an executable
// microframe and its corresponding microthread from the scheduling
// manager." Microthreads run to completion, uninterrupted (§3.2: they are
// the atomic execution unit); only their *start* is dataflow-triggered.
//
// Latency hiding: "when a microthread has to wait for data due to an
// access to the memory, the processing manager can hide the latency by
// switching to another microthread run in parallel. ... Tests showed that
// a number of about 5 microthreads run in (virtual) parallel produce good
// results." Here each slot of that window is a goroutine pulling from the
// scheduling manager; a microthread blocking in a remote read yields the
// processor to its siblings exactly as in the paper. The window size is
// configurable for the A-2 ablation.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/mthread"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wire"
)

// DefaultWindow is the paper's empirically good latency-hiding window.
const DefaultWindow = 5

// WorkModel selects how mthread.Context.Work spends its cost.
type WorkModel uint8

const (
	// WorkReal burns CPU for the scaled duration — faithful to the
	// paper's testbed, but only exhibits speedup with real cores.
	WorkReal WorkModel = iota
	// WorkSimulated sleeps for the scaled duration. Sleeping
	// microthreads across sites overlap even on a single-core host, so
	// cluster benches reproduce the paper's speedup *shape* without an
	// 8-core machine. All protocol work (scheduling, migration,
	// messages) remains real either way.
	WorkSimulated
)

// Config parameterizes a processing manager.
type Config struct {
	// Window is the latency-hiding window (paper: ≈5).
	Window int
	// Model selects real or simulated computation for Context.Work.
	Model WorkModel
	// WorkUnit is the wall-clock equivalent of Work(1.0) at speed 1.0.
	WorkUnit time.Duration
	// Speed is this site's relative speed; Work cost divides by it.
	Speed float64
}

// Manager is one site's processing manager.
type Manager struct {
	sched  *sched.Manager
	mem    *memory.Manager
	output func(types.ProgramID, string)
	exit   func(types.ProgramID, []byte)
	input  func(types.ProgramID, string) (string, bool)
	acct   func(prog types.ProgramID, busy time.Duration, workUnits float64)
	tr     *trace.Tracer
	cfg    Config
	site   func() types.SiteID

	// executed and errs are the one count of each event: the accessors
	// read them, and SetMetrics registers them under their metric names.
	executed  metrics.Counter
	errs      metrics.Counter
	busyNanos atomic.Int64
	running   atomic.Int32

	// met holds the histograms. The zero value is inert; written once by
	// SetMetrics before Start.
	met execMetrics

	// cpuMu/cpuFree serialize simulated Work per site: a site models
	// one processor, so the latency-hiding window may overlap
	// computation with *blocked* siblings (remote reads, parameter
	// waits) but never computation with computation. Workers also gate
	// *fetching* on a free CPU ("it should leave enough work for other
	// sites", paper §4): surplus ready frames stay in the scheduling
	// manager's queue where help requests can steal them, instead of
	// being hoarded by the window. Real-work mode needs neither — the
	// OS arbitrates actual CPUs.
	cpuMu   sync.Mutex
	cpuCond *sync.Cond
	cpuBusy bool

	wg sync.WaitGroup
}

// New returns a processing manager. output and exit are wired to the I/O
// and program managers by the daemon.
func New(s *sched.Manager, mem *memory.Manager, site func() types.SiteID,
	output func(types.ProgramID, string), exit func(types.ProgramID, []byte), cfg Config) *Manager {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.WorkUnit <= 0 {
		cfg.WorkUnit = time.Millisecond
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1.0
	}
	if output == nil {
		output = func(types.ProgramID, string) {}
	}
	if exit == nil {
		exit = func(types.ProgramID, []byte) {}
	}
	m := &Manager{
		sched:  s,
		mem:    mem,
		output: output,
		exit:   exit,
		input:  func(types.ProgramID, string) (string, bool) { return "", false },
		acct:   func(types.ProgramID, time.Duration, float64) {},
		cfg:    cfg,
		site:   site,
	}
	m.cpuCond = sync.NewCond(&m.cpuMu)
	return m
}

// SetTracer installs the event tracer (nil = off).
func (m *Manager) SetTracer(t *trace.Tracer) { m.tr = t }

// execMetrics bundles the processing manager's histograms; the zero value
// (nil pointers) disables collection.
type execMetrics struct {
	runTime  *metrics.Histogram // microthread execution time
	waitTime *metrics.Histogram // worker idle time between microthreads
}

// SetMetrics registers the manager's counters and installs its
// histograms. Must be called before Start; a nil registry leaves the
// counters unnamed and the histograms off.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Register("exec.executed", &m.executed)
	reg.Register("exec.errors", &m.errs)
	m.met = execMetrics{
		runTime:  reg.Histogram("exec.run_time", nil),
		waitTime: reg.Histogram("exec.wait_time", nil),
	}
	reg.GaugeFunc("exec.running", func() int64 { return int64(m.running.Load()) })
}

// SetAccountant wires the accounting manager's per-execution hook.
func (m *Manager) SetAccountant(f func(prog types.ProgramID, busy time.Duration, workUnits float64)) {
	if f != nil {
		m.acct = f
	}
}

// SetInput wires the I/O manager's frontend-input request path.
func (m *Manager) SetInput(f func(prog types.ProgramID, prompt string) (string, bool)) {
	if f != nil {
		m.input = f
	}
}

// Start launches the latency-hiding window of worker slots.
func (m *Manager) Start() {
	for i := 0; i < m.cfg.Window; i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// Wait blocks until all workers exited (after sched.Close unblocks them).
func (m *Manager) Wait() { m.wg.Wait() }

// Executed returns the number of microthreads run.
func (m *Manager) Executed() uint64 { return m.executed.Load() }

// Errors returns the number of microthreads that returned an error.
func (m *Manager) Errors() uint64 { return m.errs.Load() }

// Running returns the number of microthreads executing right now.
func (m *Manager) Running() int { return int(m.running.Load()) }

// BusyNanos returns cumulative execution time across the window,
// for load computation by the site manager.
func (m *Manager) BusyNanos() int64 { return m.busyNanos.Load() }

func (m *Manager) worker() {
	defer m.wg.Done()
	measureWait := m.met.waitTime != nil
	for {
		m.waitCPUFree()
		var idleStart time.Time
		if measureWait {
			idleStart = time.Now()
		}
		r, ok := m.sched.GetWork()
		if !ok {
			return
		}
		if measureWait {
			m.met.waitTime.Observe(time.Since(idleStart))
		}
		m.run(r)
	}
}

// waitCPUFree blocks (in simulated mode) until no sibling holds the
// simulated processor, so this worker doesn't pull work it cannot start.
func (m *Manager) waitCPUFree() {
	if m.cfg.Model != WorkSimulated {
		return
	}
	m.cpuMu.Lock()
	for m.cpuBusy {
		m.cpuCond.Wait()
	}
	m.cpuMu.Unlock()
}

// run executes one ready microframe to completion.
func (m *Manager) run(r *sched.Ready) {
	m.running.Add(1)
	start := time.Now()
	ctx := &execContext{mgr: m, frame: r.Frame}
	defer func() {
		busy := time.Since(start)
		m.busyNanos.Add(int64(busy))
		// Count before leaving the window, so Running() == 0 implies
		// every microthread that started is counted.
		m.executed.Inc()
		m.running.Add(-1)
		m.met.runTime.Observe(busy)
		m.acct(r.Frame.Thread.Program, busy, ctx.worked)
		if m.tr.Enabled() {
			m.tr.Record(trace.EvExecuted, r.Frame.ID, r.Frame.Thread,
				fmt.Sprintf("in %v", busy.Round(time.Microsecond)))
		}
		if p := recover(); p != nil {
			// A panicking microthread must not take the daemon down;
			// the paper's goal 2 (fault tolerance) applies to buggy
			// application code, too.
			m.errs.Inc()
			m.output(r.Frame.Thread.Program,
				fmt.Sprintf("microthread %v panicked: %v", r.Frame.Thread, p))
		}
	}()

	if err := r.Fn(ctx); err != nil {
		m.errs.Inc()
		m.output(r.Frame.Thread.Program,
			fmt.Sprintf("microthread %v failed: %v", r.Frame.Thread, err))
	}
}

// spend realizes one Work call under the configured model.
func (m *Manager) spend(cost float64) {
	if cost <= 0 {
		return
	}
	d := time.Duration(cost / m.cfg.Speed * float64(m.cfg.WorkUnit))
	if d <= 0 {
		return
	}
	switch m.cfg.Model {
	case WorkSimulated:
		m.cpuMu.Lock()
		for m.cpuBusy {
			m.cpuCond.Wait()
		}
		m.cpuBusy = true
		m.cpuMu.Unlock()

		//sdvmlint:allow sleepfree -- the sleep IS the model: simulated work occupies the virtual CPU for d
		time.Sleep(d)

		m.cpuMu.Lock()
		m.cpuBusy = false
		m.cpuCond.Broadcast()
		m.cpuMu.Unlock()
	default:
		// Busy-burn: spin until the deadline, touching a sink so the
		// loop is not optimized away.
		deadline := time.Now().Add(d)
		var sink uint64
		for time.Now().Before(deadline) {
			for i := 0; i < 1024; i++ {
				sink = sink*6364136223846793005 + 1442695040888963407
			}
		}
		_ = sink
	}
}

// execContext implements mthread.Context for one microthread execution.
type execContext struct {
	mgr    *Manager
	frame  *wire.Microframe
	worked float64 // accumulated Work cost, for accounting
}

var _ mthread.Context = (*execContext)(nil)

func (c *execContext) Param(i int) []byte {
	if i < 0 || i >= len(c.frame.Params) {
		return nil
	}
	return c.frame.Params[i]
}

func (c *execContext) Arity() int { return c.frame.Arity() }

func (c *execContext) Target(i int) wire.Target {
	if i < 0 || i >= len(c.frame.Target) {
		return wire.Target{}
	}
	return c.frame.Target[i]
}

func (c *execContext) Targets() []wire.Target { return c.frame.Target }

func (c *execContext) Program() types.ProgramID { return c.frame.Thread.Program }

func (c *execContext) Thread() types.ThreadID { return c.frame.Thread }

func (c *execContext) Frame() types.FrameID { return c.frame.ID }

func (c *execContext) Site() types.SiteID { return c.mgr.site() }

func (c *execContext) Speed() float64 { return c.mgr.cfg.Speed }

func (c *execContext) NewFrame(threadIdx uint32, arity int, targets ...wire.Target) types.FrameID {
	return c.NewFramePrio(threadIdx, arity, c.frame.Prio, 0, targets...)
}

func (c *execContext) NewFramePrio(threadIdx uint32, arity int, prio types.Priority, hint uint32, targets ...wire.Target) types.FrameID {
	thread := types.ThreadID{Program: c.frame.Thread.Program, Index: threadIdx}
	return c.mgr.mem.NewFrame(thread, arity, prio, hint, targets...)
}

func (c *execContext) Send(target wire.Target, data []byte) error {
	return c.mgr.mem.SendFor(c.frame.Thread.Program, target, data)
}

func (c *execContext) Alloc(data []byte) types.GlobalAddr {
	return c.mgr.mem.Alloc(c.frame.Thread.Program, data)
}

func (c *execContext) Read(addr types.GlobalAddr) ([]byte, error) {
	return c.mgr.mem.Read(addr)
}

func (c *execContext) Write(addr types.GlobalAddr, offset int, data []byte) error {
	return c.mgr.mem.Write(addr, offset, data)
}

func (c *execContext) Attract(addr types.GlobalAddr) ([]byte, error) {
	return c.mgr.mem.Attract(addr)
}

func (c *execContext) Output(text string) {
	c.mgr.output(c.frame.Thread.Program, text)
}

func (c *execContext) Work(cpuCost float64) {
	if cpuCost > 0 {
		c.worked += cpuCost
	}
	c.mgr.spend(cpuCost)
}

func (c *execContext) Input(prompt string) (string, bool) {
	return c.mgr.input(c.frame.Thread.Program, prompt)
}

func (c *execContext) Exit(result []byte) {
	c.mgr.exit(c.frame.Thread.Program, result)
}
