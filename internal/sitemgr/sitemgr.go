// Package sitemgr implements the SDVM's site manager (paper §4).
//
// "In contrast to the cluster manager, the site manager focuses on the
// local site. It offers the functionality to start and end the local
// site, and to sign on to an existing SDVM cluster. It also collects
// performance data about the local site, e.g. the workload, memory load,
// number of executable microframes in the queue, the number of programs
// the local site works on. Moreover, it provides the functionality to
// query the status of the local site, i.e. all local managers."
package sitemgr

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/gossip"
	"repro/internal/iomgr"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/types"
	"repro/internal/wire"
)

// Status is a point-in-time view of every local manager.
type Status struct {
	Site     types.SiteInfo
	Load     float64
	QueueLen int
	Programs int
	Executed uint64
	ExecErrs uint64
	Running  int
	Memory   memory.Stats
	Sched    sched.Stats
	BusSent  uint64
	BusRecv  uint64
	BusDrop  uint64
	Frames   int
	Objects  int
}

func (s Status) String() string {
	return fmt.Sprintf("%v load=%.2f queue=%d progs=%d executed=%d running=%d frames=%d objects=%d",
		s.Site.ID, s.Load, s.QueueLen, s.Programs, s.Executed, s.Running, s.Frames, s.Objects)
}

// Manager is one site's site manager.
type Manager struct {
	bus   *msgbus.Bus
	cm    *cluster.Manager
	sched *sched.Manager
	exec  *exec.Manager
	mem   *memory.Manager
	io    *iomgr.Manager
	pm    *program.Manager

	// gsp disseminates this site's statistics (one epidemic round per
	// tick) and its sign-off tombstone.
	gsp *gossip.Manager

	interval time.Duration
	window   int

	// reg is the daemon's metrics registry (nil when metrics are
	// disabled). Written once by SetMetrics before Start.
	reg *metrics.Registry

	mu        sync.Mutex
	lastBusy  int64
	lastTick  time.Time
	load      float64
	startedAt time.Time
	successor types.SiteID // picked at SignOff; inherits local state

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New returns a site manager. interval is the statistics period, which
// is also the gossip round.
func New(bus *msgbus.Bus, cm *cluster.Manager, gsp *gossip.Manager, s *sched.Manager, e *exec.Manager,
	mem *memory.Manager, io *iomgr.Manager, pm *program.Manager,
	interval time.Duration, window int) *Manager {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if window <= 0 {
		window = exec.DefaultWindow
	}
	m := &Manager{
		bus:       bus,
		cm:        cm,
		gsp:       gsp,
		sched:     s,
		exec:      e,
		mem:       mem,
		io:        io,
		pm:        pm,
		interval:  interval,
		window:    window,
		startedAt: time.Now(),
		done:      make(chan struct{}),
	}
	bus.Register(types.MgrSite, m)
	return m
}

// SetMetrics hands the site manager the daemon's registry so remote
// MetricsQuery messages can be answered. Must be called before Start; a
// nil registry answers with an empty snapshot.
func (m *Manager) SetMetrics(reg *metrics.Registry) { m.reg = reg }

// Start launches the statistics loop that refreshes this site's load
// and runs one gossip round per tick — the data peers use to aim help
// requests. Gossip needs no goroutine of its own.
func (m *Manager) Start() {
	m.mu.Lock()
	m.lastTick = time.Now()
	m.lastBusy = m.exec.BusyNanos()
	m.mu.Unlock()

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(m.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				m.tick()
			case <-m.done:
				return
			}
		}
	}()
}

// Close stops the statistics loop.
func (m *Manager) Close() {
	m.once.Do(func() { close(m.done) })
	m.wg.Wait()
}

// tick recomputes the load over the last interval and disseminates it
// in one bounded gossip round.
func (m *Manager) tick() {
	now := time.Now()
	busy := m.exec.BusyNanos()

	m.mu.Lock()
	wall := now.Sub(m.lastTick)
	delta := busy - m.lastBusy
	m.lastTick = now
	m.lastBusy = busy
	load := 0.0
	if wall > 0 {
		load = float64(delta) / (float64(wall) * float64(m.window))
		if load > 1 {
			load = 1
		}
	}
	m.load = load
	m.mu.Unlock()

	queueLen := int32(m.sched.QueueLen())
	programs := int32(len(m.pm.Programs()))
	m.cm.UpdateSelf(load, queueLen, programs)
	m.gsp.Tick(load, queueLen, programs)
}

// Load returns the most recent load estimate in [0,1].
func (m *Manager) Load() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.load
}

// Uptime returns how long the site has been running.
func (m *Manager) Uptime() time.Duration { return time.Since(m.startedAt) }

// Status snapshots every local manager.
func (m *Manager) Status() Status {
	sent, recv, drop := m.bus.Stats()
	return Status{
		Site:     m.cm.Self(),
		Load:     m.Load(),
		QueueLen: m.sched.QueueLen(),
		Programs: len(m.pm.Programs()),
		Executed: m.exec.Executed(),
		ExecErrs: m.exec.Errors(),
		Running:  m.exec.Running(),
		Memory:   m.mem.Stats(),
		Sched:    m.sched.Stats(),
		BusSent:  sent,
		BusRecv:  recv,
		BusDrop:  drop,
		Frames:   m.mem.FrameCount(),
		Objects:  m.mem.ObjectCount(),
	}
}

// PickSuccessor chooses the site that inherits this site's state at
// sign-off: the least-loaded live peer.
func (m *Manager) PickSuccessor() types.SiteID {
	var best types.SiteID
	bestLoad := 2.0
	for _, s := range m.cm.Sites() {
		if s.Load < bestLoad {
			bestLoad = s.Load
			best = s.ID
		}
	}
	return best
}

// SignOff executes the paper's controlled leave (§3.4): stop taking new
// work, finish running microthreads, relocate every queued frame and the
// local part of the global memory to other sites, then announce the
// departure. The caller closes the bus and network afterwards.
func (m *Manager) SignOff() error {
	// 1. Stop the statistics loop; stale load statistics would attract
	//    help requests to a dying site.
	m.Close()

	// 2. Stop the scheduler — no new work is accepted or handed out —
	//    and let in-flight microthreads finish. The successor is picked
	//    (and told to the scheduler) first: frames that arrive after
	//    Close — late help replies, pushes drained from the bus inbox
	//    after the goodbye empties the roster — fall back to it instead
	//    of being dropped.
	successor := m.PickSuccessor()
	m.mu.Lock()
	m.successor = successor
	m.mu.Unlock()
	if successor != types.InvalidSite {
		m.sched.SetFallback(successor)
	}
	m.sched.Close()
	m.exec.Wait()
	if successor == types.InvalidSite {
		// Last site standing: nothing to relocate to.
		m.gsp.Leave()
		m.io.CloseAll()
		return nil
	}

	// 3. Relocate queued executable frames.
	for _, f := range m.sched.DrainAll() {
		if err := m.sched.PushFrame(successor, f); err != nil {
			return fmt.Errorf("sitemgr: relocate frame %v: %w", f.ID, err)
		}
	}

	// 4. Relocate waiting frames and memory objects.
	if err := m.mem.EvacuateTo(successor); err != nil {
		return err
	}

	// 5. Say goodbye: a Left tombstone pushed to a gossip fanout's worth
	//    of peers; the epidemic carries it from there in O(log N) rounds.
	m.gsp.Leave()
	m.io.CloseAll()
	return nil
}

// Successor returns the site SignOff picked to inherit local state
// (InvalidSite before sign-off, or when this was the last site).
func (m *Manager) Successor() types.SiteID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.successor
}

// HandleMessage implements msgbus.Handler. The site manager answers
// liveness probes and remote status queries — "it provides the
// functionality to query the status of the local site, i.e. all local
// managers" (paper §4).
func (m *Manager) HandleMessage(msg *wire.Message) {
	switch p := msg.Payload.(type) {
	case *wire.Ping:
		_ = m.bus.Reply(msg, types.MgrSite, &wire.Pong{Nonce: p.Nonce})
	case *wire.StatusQuery:
		st := m.Status()
		_ = m.bus.Reply(msg, types.MgrSite, &wire.StatusReply{
			Site:     st.Site.ID,
			Load:     st.Load,
			QueueLen: int32(st.QueueLen),
			Programs: int32(st.Programs),
			Executed: st.Executed,
			Running:  int32(st.Running),
			Frames:   int32(st.Frames),
			Objects:  int32(st.Objects),
			BusSent:  st.BusSent,
			BusRecv:  st.BusRecv,
			UptimeNs: int64(m.Uptime()),
		})
	case *wire.MetricsQuery:
		snap := m.reg.Snapshot()
		samples := make([]wire.MetricSample, len(snap))
		for i, s := range snap {
			samples[i] = wire.MetricSample{Name: s.Name, Value: s.Value}
		}
		_ = m.bus.Reply(msg, types.MgrSite, &wire.MetricsReply{
			Site:    m.bus.Self(),
			Samples: samples,
		})
	}
}

// QueryStatus fetches a remote site's status snapshot. The gossip
// introduction ahead of the request lets a peer that never heard of this
// site (a fresh joiner, before the epidemic spread its row) route the
// reply.
func (m *Manager) QueryStatus(site types.SiteID) (*wire.StatusReply, error) {
	m.gsp.Introduce(site)
	reply, err := m.bus.Request(site, types.MgrSite, types.MgrSite,
		&wire.StatusQuery{}, 3*time.Second)
	if err != nil {
		return nil, err
	}
	sr, ok := reply.Payload.(*wire.StatusReply)
	if !ok {
		return nil, fmt.Errorf("%w: status reply %T", types.ErrBadMessage, reply.Payload)
	}
	return sr, nil
}

// QueryMetrics fetches a remote site's metrics snapshot. Querying the
// local site works too (the bus loops it back).
func (m *Manager) QueryMetrics(site types.SiteID) (*wire.MetricsReply, error) {
	m.gsp.Introduce(site)
	reply, err := m.bus.Request(site, types.MgrSite, types.MgrSite,
		&wire.MetricsQuery{}, 3*time.Second)
	if err != nil {
		return nil, err
	}
	mr, ok := reply.Payload.(*wire.MetricsReply)
	if !ok {
		return nil, fmt.Errorf("%w: metrics reply %T", types.ErrBadMessage, reply.Payload)
	}
	return mr, nil
}
