// Package gossip implements the SDVM's membership and load
// dissemination: the one path by which a newcomer's "id and status
// information is then propagated to the other sites of the cluster"
// (paper §3.4). Every site runs it. Instead of broadcasting to the
// whole roster (O(N) messages per site per tick), each site pushes a
// bounded digest of its membership view to fanout random peers per
// tick. Rumors — joins, sign-offs, crashes, load changes — reach every
// site in O(log N) rounds, and no dissemination path ever iterates the
// full roster. The sign-on contact pushes a newcomer's row the moment
// it learns of it, so a join does not wait for the next tick.
//
// Liveness follows SWIM: a site that falls silent turns suspect, then
// dead; a suspected site that sees its own obituary refutes it by
// bumping its incarnation number, which only the subject itself may
// do. Tombstones (dead or left) ride digests for tombstoneTTL rounds
// and are retained forever locally so stale alive copies can never
// resurrect a departed site.
package gossip

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/msgbus"
	"repro/internal/types"
	"repro/internal/wire"
)

// Manager wires the protocol State to the message bus and the cluster
// roster. The State is pure and lock-free; the Manager owns the mutex
// and applies roster side effects only after releasing it, because the
// roster fires user callbacks (OnJoin/OnLeave) that re-enter gossip.
type Manager struct {
	bus *msgbus.Bus
	cm  *cluster.Manager
	cfg Config

	mu    sync.Mutex
	st    *State         // nil until Start (self id unknown before sign-on)
	burst []types.SiteID // farewell targets recorded by Leave
}

// New creates the gossip manager, registers it on the bus and attaches
// it to the roster: every join feeds AddSite, every departure MarkGone.
// Start must be called once the local site id is known (after
// Bootstrap or Join).
func New(bus *msgbus.Bus, cm *cluster.Manager, cfg Config) *Manager {
	m := &Manager{bus: bus, cm: cm, cfg: cfg}
	bus.Register(types.MgrGossip, m)
	cm.OnJoin(m.AddSite)
	cm.OnLeave(m.MarkGone)
	return m
}

// Start seeds the protocol state from the roster snapshot the sign-on
// handshake delivered. Digests arriving before Start are dropped — the
// epidemic retries every tick, so nothing is lost.
func (m *Manager) Start() {
	self := m.cm.Self()
	peers := m.cm.Sites()
	m.mu.Lock()
	m.st = NewState(self, m.cfg)
	for _, p := range peers {
		m.st.SeedPeer(p)
	}
	m.mu.Unlock()
}

// AddSite installs (or completes) a peer row and marks it hot. New
// wires it to the roster's OnJoin hook: when this site is the sign-on contact it may
// be the only site that knows the newcomer exists, so a row the table
// never held is pushed to fanout peers at once — without advancing the
// round — instead of waiting for the next statistics tick. Merges that
// originated from gossip itself find their row already held and loop
// back harmlessly, at worst refreshing a ride budget.
func (m *Manager) AddSite(info types.SiteInfo) {
	m.mu.Lock()
	if m.st == nil || !m.st.Announce(info) {
		m.mu.Unlock()
		return
	}
	targets, digest := m.st.Rumor(info.ID)
	m.mu.Unlock()
	for _, t := range targets {
		_ = m.bus.Send(t, types.MgrGossip, types.MgrGossip, digest)
	}
}

// MarkGone tombstones a peer on local authority (a heartbeat crash
// verdict from a site that probes every peer). New wires it to the
// roster's OnLeave hook; idempotent.
func (m *Manager) MarkGone(id types.SiteID, crashed bool) {
	m.mu.Lock()
	if m.st != nil {
		m.st.MarkGone(id, crashed)
	}
	m.mu.Unlock()
}

// Accuse feeds external liveness evidence (a failed heartbeat probe
// from a site that watches only its ring successors) into the protocol
// as suspicion instead of removing the site outright: a falsely accused
// site refutes epidemically — a routine event during join waves, when a
// probe target cannot yet route its Pong back to a brand-new prober —
// while a dead one ages out.
func (m *Manager) Accuse(id types.SiteID) {
	m.mu.Lock()
	if m.st != nil {
		m.st.Accuse(id)
	}
	m.mu.Unlock()
}

// Tick runs one protocol round: refresh the local load vector, age the
// current window, and push this round's digest to fanout random peers.
// Called from the site manager's stats ticker, so gossip needs no
// goroutine of its own.
func (m *Manager) Tick(load float64, queueLen, programs int32) {
	m.mu.Lock()
	if m.st == nil {
		m.mu.Unlock()
		return
	}
	m.st.SetLocalStats(load, queueLen, programs)
	targets, digest, events := m.st.Tick()
	m.mu.Unlock()

	m.apply(events)
	for _, t := range targets {
		_ = m.bus.Send(t, types.MgrGossip, types.MgrGossip, digest)
	}
}

// Introduce pushes a one-entry digest carrying only this site's row
// directly to target, ahead of a request on the same connection. Both
// transports deliver FIFO per peer and the bus inbox preserves arrival
// order, so the peer merges this site's routing info before it
// dispatches the request — it can route the reply even if it had never
// heard of this site (a fresh joiner querying the cluster before the
// epidemic spread its row).
func (m *Manager) Introduce(target types.SiteID) {
	m.mu.Lock()
	if m.st == nil {
		m.mu.Unlock()
		return
	}
	d := m.st.SelfDigest()
	m.mu.Unlock()
	_ = m.bus.Send(target, types.MgrGossip, types.MgrGossip, d)
}

// Leave marks the local site's own row as a sign-off tombstone and
// pushes the farewell digest to a final burst of peers. The epidemic
// carries the goodbye from there; returns immediately.
func (m *Manager) Leave() {
	m.mu.Lock()
	if m.st == nil {
		m.mu.Unlock()
		return
	}
	targets, digest := m.st.Leave()
	m.burst = targets
	m.mu.Unlock()

	for _, t := range targets {
		_ = m.bus.Send(t, types.MgrGossip, types.MgrGossip, digest)
	}
}

// BurstPeers returns the targets of the sign-off farewell burst — the
// only peers worth flushing before teardown besides the successor.
func (m *Manager) BurstPeers() []types.SiteID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]types.SiteID, len(m.burst))
	copy(out, m.burst)
	return out
}

// HandleMessage implements msgbus.Handler: merge incoming digests
// (answering with an anti-entropy delta when we know fresher state)
// and deltas (never answered, so there is no reply ping-pong).
func (m *Manager) HandleMessage(msg *wire.Message) {
	switch p := msg.Payload.(type) {
	case *wire.GossipDigest:
		if !p.From.Valid() {
			return
		}
		m.mu.Lock()
		if m.st == nil {
			m.mu.Unlock()
			return
		}
		delta, events := m.st.HandleDigest(p)
		m.mu.Unlock()
		m.apply(events)
		if delta != nil {
			_ = m.bus.Send(p.From, types.MgrGossip, types.MgrGossip, delta)
		}
	case *wire.GossipDelta:
		m.mu.Lock()
		if m.st == nil {
			m.mu.Unlock()
			return
		}
		events := m.st.HandleDelta(p)
		m.mu.Unlock()
		m.apply(events)
	}
}

// apply pushes merge-decided membership events into the cluster roster.
// Runs without the gossip lock: Remove and MergeSite fire OnLeave and
// OnJoin hooks that call straight back into MarkGone and AddSite.
func (m *Manager) apply(events []Event) {
	for _, ev := range events {
		switch ev.Kind {
		case EventJoin:
			m.cm.MergeSite(ev.Info)
		case EventLeave:
			m.cm.Remove(ev.Site, ev.Crashed)
		case EventStats:
			m.cm.UpdateStats(ev.Site, ev.Load, ev.QueueLen, ev.Programs)
		}
	}
}
