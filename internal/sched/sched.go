// Package sched implements the SDVM's scheduling manager (paper §3.3, §4).
//
// The scheduling manager "maintains a queue of executable microframes and
// a queue of ready microframes" (Figure 5). A microframe arriving from
// the attraction memory (all parameters present) is *executable*; the
// scheduling manager then "will request the corresponding microthread
// from the code manager as soon as it decides that it should eventually
// be executed on the local site", and once the code pointer arrives the
// frame is *ready*. The processing manager pulls ready frames.
//
// When both queues are empty and the processing manager asks for work,
// the scheduling manager sends *help requests* to other sites — chosen by
// the cluster manager as "probably not idle" — which answer with a frame
// or a can't-help message. Local dispatch is FIFO ("to avoid starving of
// microframes"), and a help reply surrenders the *oldest* frame of the
// lowest priority. The paper prescribes a LIFO pick for help replies
// instead (hide the communication latency behind the freshest work); every
// measurement this repository records ran oldest-first, so switching is a
// behaviour change to be measured, not a default to restore.
package sched

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/mthread"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wire"
)

const (
	// parkedTTL bounds how long a parked help requester is remembered; a
	// site that found work elsewhere meanwhile simply re-begs.
	parkedTTL = time.Second

	// helpBatch bounds how many frames one help reply may carry. The
	// granter surrenders up to half its surplus, capped here, so one
	// round-trip moves a batch sized by queue depth (bulk work transfer
	// amortizes the request latency).
	helpBatch = 4
	// maxHelpFanout bounds how many distinct sites one help round asks.
	maxHelpFanout = 3
)

// helpRetry paces an idle site's help-request rounds. Polling is only the
// fallback: a turned-away requester is parked at the target, which pushes
// it the next executable frame (and the push wakes the sleeping worker
// immediately). The poll period therefore only bounds how fast an idle
// site discovers *new* busy sites, so it can be lazy.
var helpRetry = backoff.Policy{Min: time.Millisecond, Max: 25 * time.Millisecond, Jitter: 0.5}

// Resolver turns a thread id into executable code (the code manager).
type Resolver interface {
	Resolve(thread types.ThreadID) (mthread.Func, error)
}

// Adopter registers migrated frames (the attraction memory).
type Adopter interface {
	AdoptFrame(f *wire.Microframe)
}

// grantLogger is implemented by the attraction memory to record frames
// handed to peers, for crash-recovery replay.
type grantLogger interface {
	RecordGrant(grantee types.SiteID, f *wire.Microframe)
}

// grantReclaimer takes logged grants back when the reply carrying them
// could not be delivered (the requester signed off between asking and
// receiving). Reclaiming must be atomic with crash replay so a batch is
// either replayed by OnSiteCrashed or re-queued here — never both.
type grantReclaimer interface {
	ReclaimGrants(grantee types.SiteID, ids []types.FrameID) []*wire.Microframe
}

// Ready pairs an executable microframe with its resolved code pointer —
// what the scheduling manager hands the processing manager.
type Ready struct {
	Frame *wire.Microframe
	Fn    mthread.Func
}

// Config parameterizes a scheduling manager.
type Config struct {
	// Seed drives the help-retry jitter RNG, so idle sites that went
	// hungry in the same round don't re-beg in lockstep. Zero means
	// seed 1; the daemon passes a per-site seed for reproducible runs.
	Seed int64
}

// Stats counts scheduler activity.
type Stats struct {
	Enqueued       uint64 // frames that became executable here
	Dispatched     uint64 // frames handed to the processing manager
	HelpAsked      uint64 // help requests sent
	HelpGranted    uint64 // frames received from peers
	HelpDenied     uint64 // can't-help replies received
	HelpServed     uint64 // frames given away to peers
	HelpRefused    uint64 // can't-help replies sent
	ResolveErrs    uint64 // code resolution failures
	FramesInFlight int32  // executable+ready right now
}

// Manager is one site's scheduling manager.
type Manager struct {
	bus      *msgbus.Bus
	cm       *cluster.Manager
	resolver Resolver
	adopter  Adopter
	tr       *trace.Tracer

	mu         sync.Mutex
	executable queue[*wire.Microframe] // awaiting code resolution
	ready      queue[*Ready]           // awaiting the processing manager
	closed     bool
	begging    bool // one help round in flight per site

	// fallback is where frames arriving after Close are pushed. The site
	// manager sets it to the sign-off successor before closing the
	// scheduler: late help replies and pushes keep trickling in while
	// the daemon drains its bus inbox, and they should follow the queue
	// and memory to the site that inherited them rather than go to a
	// random roster pick. guarded by mu
	fallback types.SiteID

	// terminated programs: frames of these are dropped on sight.
	dead map[types.ProgramID]bool

	// resolveKick wakes the resolve loop (executable queue grew);
	// readyKick wakes GetWork waiters (ready queue grew).
	resolveKick chan struct{}
	readyKick   chan struct{}
	done        chan struct{}
	wg          sync.WaitGroup

	rngMu sync.Mutex
	// rng jitters the help-request poll (helpRetry) so starved sites
	// spread out instead of re-begging in lockstep.
	// guarded by rngMu (GetWork runs on every worker goroutine)
	rng *rand.Rand

	// lastGrantor is the peer that most recently gave this site work;
	// it is the first target of the next help round (work begets work:
	// the site that just spawned a burst of frames very likely still
	// has some).
	lastGrantor types.SiteID

	// scatterRR round-robins proactive pushes over the cluster list —
	// the paper's automatic spatial distribution: a burst of locally
	// created frames spreads immediately instead of waiting to be
	// begged for one by one.
	scatterRR int

	// parked remembers help requesters this site had to turn away;
	// the next executable frames are pushed to them instead of waiting
	// for their next poll. This turns the idle-site polling loop into
	// push-based distribution (the polling stays as a fallback).
	parked map[types.SiteID]time.Time

	// unknownProg is invoked when a frame of an unknown program arrives
	// from a peer (help reply); the program manager uses it to fetch the
	// program's registration lazily. May be nil.
	unknownProg func(prog types.ProgramID, hint types.SiteID)
	knownProg   func(prog types.ProgramID) bool

	// counts is the one count of each event: Stats reads it, and
	// SetMetrics registers the same counters under their metric names.
	counts counters

	// met holds the histograms; nil when metrics are disabled. Written
	// once by SetMetrics before Start, read-only afterwards.
	met *schedMetrics
}

// counters are atomics, so no event widens m.mu's critical section.
type counters struct {
	enqueued    metrics.Counter
	dispatched  metrics.Counter
	helpAsked   metrics.Counter
	helpGranted metrics.Counter
	helpDenied  metrics.Counter
	helpServed  metrics.Counter
	helpRefused metrics.Counter
	surrendered metrics.Counter
	resolveErrs metrics.Counter
}

// schedMetrics bundles the scheduler's histograms.
type schedMetrics struct {
	dispatchLatency *metrics.Histogram
	grantBatch      *metrics.Histogram
}

// grantBatchBounds buckets the help-grant batch-size histogram. The
// histogram counts frames, not time; sizes are encoded as durations
// because the metrics package has a single histogram type.
var grantBatchBounds = []time.Duration{1, 2, 4, 8, 16}

// SetMetrics registers the manager's counters and installs its
// histograms and queue-depth gauges. Must be called before Start; a nil
// registry leaves the counters unnamed and the histograms off.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c := &m.counts
	reg.Register("sched.enqueued", &c.enqueued)
	reg.Register("sched.dispatched", &c.dispatched)
	reg.Register("sched.help_asked", &c.helpAsked)
	reg.Register("sched.help_granted", &c.helpGranted)
	reg.Register("sched.help_denied", &c.helpDenied)
	reg.Register("sched.help_served", &c.helpServed)
	reg.Register("sched.help_refused", &c.helpRefused)
	reg.Register("sched.frames_surrendered", &c.surrendered)
	reg.Register("sched.resolve_errs", &c.resolveErrs)
	m.met = &schedMetrics{
		dispatchLatency: reg.Histogram("sched.dispatch_latency", nil),
		grantBatch:      reg.Histogram("sched.grant.batch", grantBatchBounds),
	}
	reg.GaugeFunc("sched.executable_depth", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.executable.len())
	})
	reg.GaugeFunc("sched.ready_depth", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.ready.len())
	})
}

// dispatchLocked removes the ready frame local dispatch runs next,
// counting it and feeding the dispatch-latency histogram with the time
// since it became executable here. nil when none is ready. Caller holds
// m.mu.
func (m *Manager) dispatchLocked() *Ready {
	r, at, ok := m.ready.pop()
	if !ok {
		return nil
	}
	m.counts.dispatched.Inc()
	if m.met != nil && !at.IsZero() {
		m.met.dispatchLatency.Observe(time.Since(at))
	}
	return r
}

// New returns a scheduling manager registered for MgrScheduling.
func New(bus *msgbus.Bus, cm *cluster.Manager, resolver Resolver, cfg Config) *Manager {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m := &Manager{
		bus:         bus,
		cm:          cm,
		resolver:    resolver,
		parked:      make(map[types.SiteID]time.Time),
		dead:        make(map[types.ProgramID]bool),
		resolveKick: make(chan struct{}, 1),
		readyKick:   make(chan struct{}, 1),
		done:        make(chan struct{}),
		knownProg:   func(types.ProgramID) bool { return true },
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
	bus.Register(types.MgrScheduling, m)
	return m
}

// SetAdopter wires the attraction memory (for incomplete frames arriving
// in relocations).
func (m *Manager) SetAdopter(a Adopter) { m.adopter = a }

// SetTracer installs the event tracer (nil = off).
func (m *Manager) SetTracer(t *trace.Tracer) { m.tr = t }

// SetProgramHooks wires the program manager's lazy registration lookup.
func (m *Manager) SetProgramHooks(known func(types.ProgramID) bool, unknown func(types.ProgramID, types.SiteID)) {
	m.knownProg = known
	m.unknownProg = unknown
}

// Start launches the code-resolution worker.
func (m *Manager) Start() {
	m.wg.Add(1)
	go m.resolveLoop()
}

// Close stops the scheduler; blocked GetWork calls return false.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done)
	m.wg.Wait()
}

// SetFallback names the site that inherits frames arriving after Close.
// The site manager calls it with the sign-off successor before closing
// the scheduler, so late pushes and help replies that drain from the
// bus inbox still find a home once the goodbye broadcast has emptied
// the roster.
func (m *Manager) SetFallback(dst types.SiteID) {
	m.mu.Lock()
	m.fallback = dst
	m.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	c := &m.counts
	return Stats{
		Enqueued:       c.enqueued.Load(),
		Dispatched:     c.dispatched.Load(),
		HelpAsked:      c.helpAsked.Load(),
		HelpGranted:    c.helpGranted.Load(),
		HelpDenied:     c.helpDenied.Load(),
		HelpServed:     c.helpServed.Load(),
		HelpRefused:    c.helpRefused.Load(),
		ResolveErrs:    c.resolveErrs.Load(),
		FramesInFlight: int32(m.QueueLen()),
	}
}

// QueueLen returns executable+ready counts for the gossiped statistics.
func (m *Manager) QueueLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queuedLocked()
}

// queuedLocked counts the frames in both queues. Caller holds m.mu.
func (m *Manager) queuedLocked() int { return m.executable.len() + m.ready.len() }

// notifyResolve wakes the resolve loop without blocking.
func (m *Manager) notifyResolve() {
	select {
	case m.resolveKick <- struct{}{}:
	default:
	}
}

// notifyReady wakes one GetWork waiter without blocking.
func (m *Manager) notifyReady() {
	select {
	case m.readyKick <- struct{}{}:
	default:
	}
}

// Enqueue accepts a microframe that just became executable — the
// attraction memory's fire callback for locally created frames. It never
// blocks. Surplus local frames scatter round-robin across the cluster
// (spatial distribution, paper §2.1); frames received from peers enter
// through enqueueForeign and never bounce onward.
func (m *Manager) Enqueue(f *wire.Microframe) {
	m.enqueue(f, true)
}

// enqueueForeign accepts an executable frame granted by a peer.
func (m *Manager) enqueueForeign(f *wire.Microframe) {
	m.enqueue(f, false)
}

func (m *Manager) enqueue(f *wire.Microframe, allowScatter bool) {
	m.mu.Lock()
	if m.dead[f.Thread.Program] {
		m.mu.Unlock()
		return
	}
	if m.closed {
		fb := m.fallback
		m.mu.Unlock()
		// Signing off (or shut down): this frame must not die with us.
		// Prefer the designated sign-off successor — the site that just
		// inherited our queue and memory — over a random roster pick, so
		// late arrivals drained from the bus inbox follow the rest of
		// the state. Each push is grant-logged, so a crash of the target
		// replays it. If the successor itself is unreachable, fall back
		// to any roster pick rather than dropping the frame.
		target := fb
		if !target.Valid() || target == m.bus.Self() {
			target = m.cm.PickHelpTarget(nil)
		}
		if target.Valid() && target != m.bus.Self() {
			if m.PushFrame(target, f) == nil {
				return
			}
			if alt := m.cm.PickHelpTarget(map[types.SiteID]bool{target: true}); alt.Valid() && alt != m.bus.Self() {
				_ = m.PushFrame(alt, f)
			}
		}
		return
	}
	// Scatter: keep a couple of frames for the local processor, ship
	// the rest to peers immediately. Critical-path frames stay local.
	if allowScatter && f.Prio < types.PriorityCritical && m.queuedLocked() >= 2 {
		if dst := m.scatterTargetLocked(); dst.Valid() {
			m.mu.Unlock()
			m.pushGranted(dst, f, "scatter")
			return
		}
	}
	var now time.Time // stays zero, and unobserved, with metrics off
	if m.met != nil {
		now = time.Now()
	}
	m.executable.push(f, f.Prio, now)
	m.counts.enqueued.Inc()
	push := m.feedParkedLocked()
	m.mu.Unlock()
	m.tr.Record(trace.EvEnqueued, f.ID, f.Thread, "")
	m.notifyResolve()
	if push != nil {
		m.pushGranted(push.dst, push.frame, "parked push")
	}
}

// pushGranted grant-logs f and ships it to dst. A push that cannot be
// delivered must not lose the frame: the target was picked from stale
// state (a parked help requester, a scatter round-robin slot) and may
// have signed off since — gracefully, so no crash declaration will ever
// replay the logged grant. The send error is the only signal; on it the
// grant is taken back from the log and the frame requeued locally.
func (m *Manager) pushGranted(dst types.SiteID, f *wire.Microframe, why string) {
	g, logged := m.adopter.(grantLogger)
	if logged {
		g.RecordGrant(dst, f)
	}
	if m.tr.Enabled() {
		m.tr.Record(trace.EvGranted, f.ID, f.Thread, why+" to "+dst.String())
	}
	m.counts.helpServed.Inc()
	err := m.bus.Send(dst, types.MgrScheduling, types.MgrScheduling, &wire.FramePush{Frame: f})
	if err == nil {
		return
	}
	// dst is gone; stop feeding it.
	m.mu.Lock()
	delete(m.parked, dst)
	m.mu.Unlock()
	salvage := []*wire.Microframe{f}
	if rec, ok := m.adopter.(grantReclaimer); ok && logged {
		// Atomic with crash replay: if a racing crash declaration for
		// dst already consumed the log entry, the reclaim comes back
		// empty and the frame is not injected twice.
		salvage = rec.ReclaimGrants(dst, []types.FrameID{f.ID})
	}
	for _, r := range salvage {
		m.tr.Record(trace.EvReceived, r.ID, r.Thread, "undeliverable "+why+" to "+dst.String()+" reclaimed")
		m.enqueueForeign(r)
	}
}

// scatterTargetLocked picks the next peer in round-robin order for a
// proactive push. Caller holds m.mu.
func (m *Manager) scatterTargetLocked() types.SiteID {
	sites := m.cm.SiteIDs()
	self := m.bus.Self()
	if len(sites) < 2 {
		return types.InvalidSite
	}
	for range sites {
		m.scatterRR++
		dst := sites[m.scatterRR%len(sites)]
		if dst != self {
			return dst
		}
	}
	return types.InvalidSite
}

// pendingPush is a frame owed to a parked help requester.
type pendingPush struct {
	dst   types.SiteID
	frame *wire.Microframe
}

// feedParkedLocked hands a surplus executable frame to one parked
// requester, if any. Caller holds m.mu.
func (m *Manager) feedParkedLocked() *pendingPush {
	if len(m.parked) == 0 {
		return nil
	}
	// Keep one frame for ourselves, as with help replies.
	if m.queuedLocked() <= 1 {
		return nil
	}
	now := time.Now()
	var dst types.SiteID
	for id, since := range m.parked {
		if now.Sub(since) > parkedTTL {
			delete(m.parked, id)
			continue
		}
		dst = id
		break
	}
	if dst == types.InvalidSite {
		return nil
	}
	f := m.popSurrenderLocked()
	if f == nil {
		return nil
	}
	delete(m.parked, dst)
	return &pendingPush{dst: dst, frame: f}
}

// resolveLoop drains the executable queue into the ready queue by
// resolving code pointers. Resolution can block on the network (code
// requests) and on simulated compiles, which is exactly why the paper
// separates the two queues.
func (m *Manager) resolveLoop() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		f, at, ok := m.executable.pop()
		m.mu.Unlock()

		if !ok {
			select {
			case <-m.resolveKick:
				continue
			case <-m.done:
				return
			}
		}

		fn, err := m.resolver.Resolve(f.Thread)
		if err != nil {
			m.counts.resolveErrs.Inc()
			continue
		}
		m.mu.Lock()
		if m.dead[f.Thread.Program] {
			m.mu.Unlock()
			continue
		}
		m.ready.push(&Ready{Frame: f, Fn: fn}, f.Prio, at)
		m.mu.Unlock()
		m.tr.Record(trace.EvCodeResolved, f.ID, f.Thread, "")
		m.notifyReady()
	}
}

// GetWork blocks until a ready microframe is available and returns it,
// issuing help requests to peers while idle. ok is false after Close.
// The idle-poll timer is allocated once per call and re-armed with
// Reset, so an idle worker's begging loop does not churn a timer (plus
// its runtime state) per empty-handed round.
func (m *Manager) GetWork() (r *Ready, ok bool) {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	attempt := 0
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, false
		}
		if r := m.dispatchLocked(); r != nil {
			m.mu.Unlock()
			m.tr.Record(trace.EvDispatched, r.Frame.ID, r.Frame.Thread, "")
			return r, true
		}
		idle := m.executable.len() == 0
		m.mu.Unlock()

		if idle {
			// Only one worker begs at a time: a site-wide storm of
			// concurrent help requests would flood the cluster (and a
			// single request suffices — any granted frame lands in the
			// shared queues anyway).
			m.mu.Lock()
			beg := !m.begging
			if beg {
				m.begging = true
			}
			m.mu.Unlock()
			if beg {
				helped := m.askForHelp()
				m.mu.Lock()
				m.begging = false
				m.mu.Unlock()
				if helped {
					attempt = 0
					continue
				}
			}
		}

		if timer == nil {
			timer = time.NewTimer(m.helpDelay(attempt))
		} else {
			timer.Reset(m.helpDelay(attempt))
		}
		select {
		case <-m.readyKick:
			// Drain a concurrent expiry so the next Reset cannot fire
			// stale (pre-1.23 timer semantics; harmless after).
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			attempt = 0
		case <-timer.C:
			attempt++
		case <-m.done:
			return nil, false
		}
	}
}

// helpDelay computes the jittered poll delay for an idle worker's n-th
// consecutive empty-handed round.
func (m *Manager) helpDelay(attempt int) time.Duration {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return helpRetry.Delay(attempt, m.rng)
}

// TryGetWork returns a ready frame if one is queued, without blocking or
// asking peers.
func (m *Manager) TryGetWork() (*Ready, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false
	}
	r := m.dispatchLocked()
	return r, r != nil
}

// askForHelp runs one help-request round: ask up to maxHelpFanout
// distinct peers, stop at the first grant. Reports whether work arrived.
func (m *Manager) askForHelp() bool {
	self := m.cm.Self()
	exclude := make(map[types.SiteID]bool)
	for i := 0; i < maxHelpFanout; i++ {
		target := types.InvalidSite
		if i == 0 {
			target = m.grantorTarget(exclude)
		}
		if target == types.InvalidSite {
			target = m.cm.PickHelpTarget(exclude)
			if !m.asksBlind() && !m.advertisesWork(target) {
				// The roster scan prefers queued sites, so none is
				// left to ask.
				return false
			}
		}
		if target == types.InvalidSite {
			return false
		}
		exclude[target] = true

		// Local work may have arrived (a parked push, a fired frame)
		// while we were begging; stop immediately.
		m.mu.Lock()
		if m.queuedLocked() > 0 {
			m.mu.Unlock()
			return true
		}
		m.mu.Unlock()
		m.counts.helpAsked.Inc()

		reply, err := m.bus.Request(target, types.MgrScheduling, types.MgrScheduling,
			&wire.HelpRequest{Requester: self.ID, Load: self.Load, Speed: self.Speed}, 250*time.Millisecond)
		if err != nil {
			continue
		}
		hr, ok := reply.Payload.(*wire.HelpReply)
		if !ok || hr.CantHelp || len(hr.Frames) == 0 {
			m.counts.helpDenied.Inc()
			continue
		}

		m.counts.helpGranted.Add(uint64(len(hr.Frames)))
		for _, f := range hr.Frames {
			if f != nil {
				m.acceptForeignFrame(f, reply.Src)
			}
		}
		return true
	}
	return false
}

// acceptForeignFrame routes a frame received from a peer: executable
// frames enter the local queues, incomplete ones (sign-off relocations)
// go to the attraction memory.
func (m *Manager) acceptForeignFrame(f *wire.Microframe, from types.SiteID) {
	if from.Valid() && from != m.bus.Self() {
		m.mu.Lock()
		m.lastGrantor = from
		m.mu.Unlock()
		if m.tr.Enabled() {
			m.tr.Record(trace.EvReceived, f.ID, f.Thread, "from "+from.String())
		}
	}
	if m.unknownProg != nil && !m.knownProg(f.Thread.Program) {
		m.unknownProg(f.Thread.Program, from)
	}
	if f.Executable() {
		m.enqueueForeign(f)
		return
	}
	if m.adopter != nil {
		m.adopter.AdoptFrame(f)
	}
}

// asksBlind reports whether a help round may ask peers whose gossiped
// statistics show no queued work. It may when one round reaches every
// peer (at most maxHelpFanout of them): the round itself is then the
// freshest view of the cluster, fresher than statistics that lag a
// tick. With more peers, an idle site asks only where queued work is
// advertised, so an idle cluster sends no help traffic at all: blind
// rounds from N idle sites cost N·maxHelpFanout can't-help round trips
// per poll period, and at 128 sites they multiplied the cluster's
// message count several times over while the rosters converged.
func (m *Manager) asksBlind() bool {
	return m.cm.Size()-1 <= maxHelpFanout
}

// advertisesWork reports whether id's gossiped statistics show queued
// frames.
func (m *Manager) advertisesWork(id types.SiteID) bool {
	info, ok := m.cm.Lookup(id)
	return ok && info.QueueLen > 0
}

// grantorTarget returns the last grantor if it is usable as a target.
func (m *Manager) grantorTarget(exclude map[types.SiteID]bool) types.SiteID {
	m.mu.Lock()
	g := m.lastGrantor
	m.mu.Unlock()
	if !g.Valid() || g == m.bus.Self() || exclude[g] {
		return types.InvalidSite
	}
	if _, known := m.cm.Lookup(g); !known {
		return types.InvalidSite
	}
	return g
}

// surplusLocked counts the queued frames this site can give away. It
// keeps the last frame for itself: handing away our only work would just
// bounce the idleness to this site. Caller holds m.mu.
func (m *Manager) surplusLocked() int {
	return m.queuedLocked() - 1
}

// popSurrenderLocked takes the oldest lowest-priority non-critical frame
// to give away: executable queue first (no code resolution invested yet),
// then the ready queue (strip the code pointer; the peer resolves it
// again). Caller holds m.mu.
func (m *Manager) popSurrenderLocked() *wire.Microframe {
	if f, _, ok := m.executable.popSurrender(); ok {
		return f
	}
	if r, _, ok := m.ready.popSurrender(); ok {
		return r.Frame
	}
	return nil
}

// surrenderFrame picks one frame to give away in a help reply and counts
// it.
func (m *Manager) surrenderFrame() *wire.Microframe {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.surplusLocked() <= 0 {
		return nil
	}
	f := m.popSurrenderLocked()
	if f == nil {
		return nil
	}
	m.counts.helpServed.Inc()
	m.counts.surrendered.Inc()
	return f
}

// surrenderBatch picks up to helpBatch frames to give away in one help
// reply: half the current surplus (beyond the keep-one rule), so a deep
// queue sheds work in bulk while a shallow one still grants a single
// frame. surrenderFrame re-checks the keep rule on every pick, so a
// concurrent dispatch can only shrink the batch, never under-keep.
func (m *Manager) surrenderBatch() []*wire.Microframe {
	m.mu.Lock()
	surplus := m.surplusLocked()
	m.mu.Unlock()
	if surplus <= 0 {
		return nil
	}
	n := min((surplus+1)/2, helpBatch)
	var out []*wire.Microframe
	for len(out) < n {
		f := m.surrenderFrame()
		if f == nil {
			break
		}
		out = append(out, f)
	}
	return out
}

// PushFrame proactively migrates an executable frame to another site
// (sign-off relocation of queued work).
func (m *Manager) PushFrame(dst types.SiteID, f *wire.Microframe) error {
	if g, ok := m.adopter.(grantLogger); ok {
		g.RecordGrant(dst, f)
	}
	return m.bus.Send(dst, types.MgrScheduling, types.MgrScheduling, &wire.FramePush{Frame: f})
}

// DrainAll removes and returns every queued frame (sign-off).
func (m *Manager) DrainAll() []*wire.Microframe {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.executable.drain()
	for _, r := range m.ready.drain() {
		out = append(out, r.Frame)
	}
	return out
}

// DropProgram discards all queued frames of a terminated program.
func (m *Manager) DropProgram(prog types.ProgramID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dead[prog] = true
	m.executable.remove(func(f *wire.Microframe) bool { return f.Thread.Program == prog })
	m.ready.remove(func(r *Ready) bool { return r.Frame.Thread.Program == prog })
}

// SnapshotFrames returns copies of all queued frames of one program
// (checkpointing: queued frames are no longer in the attraction memory).
func (m *Manager) SnapshotFrames(prog types.ProgramID) []*wire.Microframe {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*wire.Microframe
	for _, f := range m.executable.all() {
		if f.Thread.Program == prog {
			out = append(out, f.Clone())
		}
	}
	for _, r := range m.ready.all() {
		if r.Frame.Thread.Program == prog {
			out = append(out, r.Frame.Clone())
		}
	}
	return out
}

// HandleMessage implements msgbus.Handler.
func (m *Manager) HandleMessage(msg *wire.Message) {
	switch p := msg.Payload.(type) {
	case *wire.HelpRequest:
		// Refresh the requester's statistics while we are at it (the
		// paper piggybacks status propagation on normal actions).
		if frames := m.surrenderBatch(); len(frames) > 0 {
			g, logged := m.adopter.(grantLogger)
			for _, f := range frames {
				if logged {
					g.RecordGrant(p.Requester, f)
				}
				m.tr.Record(trace.EvGranted, f.ID, f.Thread, "help reply to "+p.Requester.String())
			}
			if m.met != nil {
				m.met.grantBatch.Observe(time.Duration(len(frames)))
			}
			if err := m.bus.Reply(msg, types.MgrScheduling, &wire.HelpReply{Frames: frames}); err != nil {
				// The requester vanished between asking and receiving
				// (graceful sign-off closes its endpoint without a crash
				// declaration, so nothing would ever replay the batch).
				// Take the grants back and run them here. ReclaimGrants
				// shares the grant log's mutex with OnSiteCrashed, so a
				// racing crash declaration replays a frame or we requeue
				// it — never both.
				salvage := frames
				if rec, ok := m.adopter.(grantReclaimer); ok && logged {
					ids := make([]types.FrameID, len(frames))
					for i, f := range frames {
						ids[i] = f.ID
					}
					salvage = rec.ReclaimGrants(p.Requester, ids)
				}
				for _, f := range salvage {
					m.tr.Record(trace.EvGranted, f.ID, f.Thread, "help reply undeliverable, reclaimed")
					m.enqueueForeign(f)
				}
			}
		} else {
			m.mu.Lock()
			m.counts.helpRefused.Inc()
			// Remember the hungry site: the next surplus frame goes to
			// it without waiting for its next poll.
			if p.Requester.Valid() && p.Requester != m.bus.Self() {
				m.parked[p.Requester] = time.Now()
			}
			m.mu.Unlock()
			_ = m.bus.Reply(msg, types.MgrScheduling, &wire.HelpReply{CantHelp: true})
		}
	case *wire.HelpReply:
		// A reply that arrived after the requester's timeout: the bus
		// dispatches it here rather than dropping it. The granter has
		// already surrendered the whole batch and logged the grants, so
		// losing it now would strand the computation — salvage every
		// frame exactly like a push.
		for _, f := range p.Frames {
			if f != nil {
				m.acceptForeignFrame(f, msg.Src)
			}
		}
	case *wire.FramePush:
		m.acceptForeignFrame(p.Frame, msg.Src)
	}
}
