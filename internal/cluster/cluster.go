// Package cluster implements the SDVM's cluster manager (paper §4).
//
// The cluster manager "maintains a list containing information about
// every site participating in the cluster": logical and physical
// addresses, platform id, relative speed, and load statistics. It runs
// the sign-on protocol (paper §3.4), allocates logical ids from the
// bootstrap site's counter, and answers the scheduling manager's
// question "which site should I send a help request to?" based on the
// statistics it holds about other sites. Membership knowledge and those
// statistics spread through the epidemic layer (internal/gossip), which
// feeds this list through the OnJoin/OnLeave hooks, MergeSite, Remove
// and UpdateStats.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/msgbus"
	"repro/internal/types"
	"repro/internal/wire"
)

// BootstrapID is the logical id the first site of a cluster assigns
// itself.
const BootstrapID types.SiteID = 1

// Config parameterizes a cluster manager.
type Config struct {
	// PhysAddr is this site's network-manager listen address.
	PhysAddr string
	// Platform is the site's (simulated) platform id.
	Platform types.PlatformID
	// Speed is the site's relative processing speed (1.0 = reference).
	Speed float64
	// Reliable marks this site as part of the reliable core
	// (paper §2.2): checkpoints of unsafe sites are stored here.
	Reliable bool
	// Seed makes help-target tie-breaking deterministic in tests;
	// 0 derives a seed from the physical address.
	Seed int64
}

// Manager is one site's cluster manager.
type Manager struct {
	bus  *msgbus.Bus
	cfg  Config
	rand *rand.Rand

	mu       sync.RWMutex
	self     types.SiteInfo
	sites    map[types.SiteID]types.SiteInfo // excludes self
	departed map[types.SiteID]string         // signed-off or crashed → last physical address
	ids      *idCounter                      // the id space; bootstrap site only

	// onJoin/onLeave observers; the site and checkpoint managers hook
	// membership changes.
	onChangeMu sync.Mutex
	onJoin     []func(types.SiteInfo)
	onLeave    []func(types.SiteID, bool) // crashed?
}

// New returns a cluster manager bound to bus. It registers itself as the
// bus handler for MgrCluster.
func New(bus *msgbus.Bus, cfg Config) *Manager {
	if cfg.Speed <= 0 {
		cfg.Speed = 1.0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(len(cfg.PhysAddr) + 1)
		for _, c := range cfg.PhysAddr {
			seed = seed*131 + int64(c)
		}
	}
	m := &Manager{
		bus:      bus,
		cfg:      cfg,
		rand:     rand.New(rand.NewSource(seed)),
		sites:    make(map[types.SiteID]types.SiteInfo),
		departed: make(map[types.SiteID]string),
	}
	bus.Register(types.MgrCluster, m)
	return m
}

// SetPhysAddr records the actually bound listen address (the configured
// one may have been ":0"-style). Must be called before Bootstrap or Join.
func (m *Manager) SetPhysAddr(addr string) {
	m.mu.Lock()
	m.cfg.PhysAddr = addr
	m.self.PhysAddr = addr
	m.mu.Unlock()
}

// Bootstrap starts a brand-new cluster: this site takes BootstrapID and
// becomes the root of the id space (and, implicitly, a code distribution
// site — the paper notes the application's start site always is one).
func (m *Manager) Bootstrap() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ids = &idCounter{next: uint32(BootstrapID) + 1}
	m.self = types.SiteInfo{
		ID:         BootstrapID,
		PhysAddr:   m.cfg.PhysAddr,
		Platform:   m.cfg.Platform,
		Speed:      m.cfg.Speed,
		IsCodeDist: true,
		Reliable:   m.cfg.Reliable,
	}
	m.bus.SetSelf(BootstrapID)
}

// Join signs on to an existing cluster through the site listening at
// contactAddr (paper §3.4: the joining site knows exactly one address,
// supplied "by a configuration file or direct input").
func (m *Manager) Join(contactAddr string, timeout time.Duration) error {
	req := &wire.SignOnRequest{
		PhysAddr: m.cfg.PhysAddr,
		Platform: m.cfg.Platform,
		Speed:    m.cfg.Speed,
		Reliable: m.cfg.Reliable,
	}
	reply, err := m.bus.RequestAddr(contactAddr, types.MgrCluster, types.MgrCluster, req, timeout)
	if err != nil {
		return fmt.Errorf("cluster: sign-on via %s: %w", contactAddr, err)
	}
	ack, ok := reply.Payload.(*wire.SignOnReply)
	if !ok {
		return fmt.Errorf("%w: sign-on reply %T", types.ErrBadMessage, reply.Payload)
	}

	m.mu.Lock()
	m.self = types.SiteInfo{
		ID:       ack.Assigned,
		PhysAddr: m.cfg.PhysAddr,
		Platform: m.cfg.Platform,
		Speed:    m.cfg.Speed,
		Reliable: m.cfg.Reliable,
	}
	m.bus.SetSelf(ack.Assigned)
	for _, s := range ack.Cluster {
		if s.ID != ack.Assigned && s.PhysAddr != m.cfg.PhysAddr {
			m.sites[s.ID] = s
		}
	}
	// Drop any phantom self entry a racing announcement created before
	// the assigned id was known.
	delete(m.sites, ack.Assigned)
	m.mu.Unlock()
	return nil
}

// Self returns this site's current cluster-list entry.
func (m *Manager) Self() types.SiteInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.self
}

// SelfID returns this site's logical id.
func (m *Manager) SelfID() types.SiteID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.self.ID
}

// UpdateSelf refreshes the local statistics that travel in gossip digests.
func (m *Manager) UpdateSelf(load float64, queueLen, programs int32) {
	m.mu.Lock()
	m.self.Load = load
	m.self.QueueLen = queueLen
	m.self.Programs = programs
	m.mu.Unlock()
}

// SetCodeDist marks this site as a code distribution site.
func (m *Manager) SetCodeDist(v bool) {
	m.mu.Lock()
	m.self.IsCodeDist = v
	m.mu.Unlock()
}

// PhysAddr implements msgbus.Resolver using the cluster list.
func (m *Manager) PhysAddr(id types.SiteID) (string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id == m.self.ID {
		return m.self.PhysAddr, nil
	}
	if s, ok := m.sites[id]; ok {
		return s.PhysAddr, nil
	}
	if _, gone := m.departed[id]; gone {
		return "", &types.SiteError{Err: types.ErrSiteLeft, Site: id}
	}
	return "", &types.SiteError{Err: types.ErrSiteUnknown, Site: id}
}

// SiteIDs implements msgbus.Resolver: all known live sites, self included.
func (m *Manager) SiteIDs() []types.SiteID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]types.SiteID, 0, len(m.sites)+1)
	if m.self.ID.Valid() {
		out = append(out, m.self.ID)
	}
	for id := range m.sites {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sites returns a snapshot of all known peer entries (excluding self).
func (m *Manager) Sites() []types.SiteInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]types.SiteInfo, 0, len(m.sites))
	for _, s := range m.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the cluster-list entry for id.
func (m *Manager) Lookup(id types.SiteID) (types.SiteInfo, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id == m.self.ID {
		return m.self, true
	}
	s, ok := m.sites[id]
	return s, ok
}

// Size returns the number of live sites known, including self.
func (m *Manager) Size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.sites)
	if m.self.ID.Valid() {
		n++
	}
	return n
}

// ReliableSites returns the known reliable-core sites (paper §2.2).
func (m *Manager) ReliableSites() []types.SiteID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []types.SiteID
	if m.self.Reliable && m.self.ID.Valid() {
		out = append(out, m.self.ID)
	}
	for id, s := range m.sites {
		if s.Reliable {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CodeDistSites returns the known code distribution sites.
func (m *Manager) CodeDistSites() []types.SiteID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []types.SiteID
	if m.self.IsCodeDist && m.self.ID.Valid() {
		out = append(out, m.self.ID)
	}
	for id, s := range m.sites {
		if s.IsCodeDist {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OnJoin registers a callback fired when a new site appears in the list.
func (m *Manager) OnJoin(f func(types.SiteInfo)) {
	m.onChangeMu.Lock()
	m.onJoin = append(m.onJoin, f)
	m.onChangeMu.Unlock()
}

// OnLeave registers a callback fired when a site departs; crashed tells
// a controlled sign-off (false) from a detected crash (true).
func (m *Manager) OnLeave(f func(id types.SiteID, crashed bool)) {
	m.onChangeMu.Lock()
	m.onLeave = append(m.onLeave, f)
	m.onChangeMu.Unlock()
}

// VacatedAddr returns the physical address departed site id listened
// on, or "" when id has not departed or a live site has since taken the
// address over — what the network manager may forget about id.
func (m *Manager) VacatedAddr(id types.SiteID) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	addr := m.departed[id]
	for _, s := range m.sites {
		if s.PhysAddr == addr {
			return ""
		}
	}
	return addr
}

// MergeSite adds or refreshes a peer entry learned from a gossip digest.
// Fires OnJoin for a site new to the list. Gossip events are
// incarnation-fenced, so a merge for a departed id is an authoritative
// revival (the subject itself outbid its tombstone) and clears the
// departed mark.
func (m *Manager) MergeSite(s types.SiteInfo) {
	if s.ID.Valid() {
		m.mu.Lock()
		delete(m.departed, s.ID)
		m.mu.Unlock()
	}
	m.merge(s)
}

// UpdateStats refreshes the load vector of a known peer from a gossiped
// row. Unknown or departed ids are ignored.
func (m *Manager) UpdateStats(id types.SiteID, load float64, queueLen, programs int32) {
	m.mu.Lock()
	if s, ok := m.sites[id]; ok {
		s.Load = load
		s.QueueLen = queueLen
		s.Programs = programs
		m.sites[id] = s
	}
	m.mu.Unlock()
}

// merge adds or refreshes a peer entry, firing OnJoin for new sites.
func (m *Manager) merge(s types.SiteInfo) {
	if !s.ID.Valid() {
		return
	}
	m.mu.Lock()
	// The physical-address check covers the sign-on race: a digest
	// carrying *this* site's row can arrive before Join has recorded the
	// assigned id, and must not create a phantom peer.
	if _, gone := m.departed[s.ID]; gone || s.ID == m.self.ID || s.PhysAddr == m.cfg.PhysAddr {
		m.mu.Unlock()
		return
	}
	_, known := m.sites[s.ID]
	m.sites[s.ID] = s
	m.mu.Unlock()

	if !known {
		m.onChangeMu.Lock()
		cbs := append([]func(types.SiteInfo){}, m.onJoin...)
		m.onChangeMu.Unlock()
		for _, f := range cbs {
			f(s)
		}
	}
}

// Remove drops a site from the list (sign-off or crash).
func (m *Manager) Remove(id types.SiteID, crashed bool) {
	m.mu.Lock()
	s, known := m.sites[id]
	delete(m.sites, id)
	if _, gone := m.departed[id]; !gone {
		m.departed[id] = s.PhysAddr
	}
	m.mu.Unlock()
	if !known {
		return
	}
	m.onChangeMu.Lock()
	cbs := append([]func(types.SiteID, bool){}, m.onLeave...)
	m.onChangeMu.Unlock()
	for _, f := range cbs {
		f(id, crashed)
	}
}

// PickHelpTarget chooses a site for a help request: "choose a site which
// is probably not idle itself" (paper §4). Sites with queued work are
// preferred, then higher load; ties break randomly so simultaneous idle
// sites do not stampede one victim.
func (m *Manager) PickHelpTarget(exclude map[types.SiteID]bool) types.SiteID {
	m.mu.RLock()
	type cand struct {
		id    types.SiteID
		queue int32
		load  float64
	}
	cands := make([]cand, 0, len(m.sites))
	for id, s := range m.sites {
		if exclude[id] || id == m.self.ID {
			continue
		}
		cands = append(cands, cand{id, s.QueueLen, s.Load})
	}
	m.mu.RUnlock()
	if len(cands) == 0 {
		return types.InvalidSite
	}

	best := make([]cand, 0, len(cands))
	// Prefer sites known to have queued frames.
	for _, c := range cands {
		if c.queue > 0 {
			best = append(best, c)
		}
	}
	if len(best) == 0 {
		// Fall back to busiest by load.
		maxLoad := -1.0
		for _, c := range cands {
			if c.load > maxLoad {
				maxLoad = c.load
			}
		}
		for _, c := range cands {
			if c.load >= maxLoad-1e-9 {
				best = append(best, c)
			}
		}
	}
	m.mu.Lock()
	pick := best[m.rand.Intn(len(best))]
	m.mu.Unlock()
	return pick.id
}

// HandleMessage implements msgbus.Handler.
func (m *Manager) HandleMessage(msg *wire.Message) {
	switch p := msg.Payload.(type) {
	case *wire.SignOnRequest:
		// Allocation may call out to the bootstrap site; never block the
		// dispatcher.
		go m.handleSignOn(msg, p)
	case *wire.IDBlockRequest:
		m.handleIDBlock(msg, p)
	case *wire.Ping:
		_ = m.bus.Reply(msg, types.MgrCluster, &wire.Pong{Nonce: p.Nonce})
	}
}

func (m *Manager) handleSignOn(msg *wire.Message, req *wire.SignOnRequest) {
	m.mu.RLock()
	ids, signedOn := m.ids, m.self.ID.Valid()
	m.mu.RUnlock()
	if !signedOn {
		_ = m.bus.ReplyErr(msg, types.MgrCluster, wire.ErrCodeShutdown, "site not signed on itself")
		return
	}
	var id types.SiteID
	var err error
	if ids != nil {
		id, err = ids.grant(1)
	} else {
		id, err = m.requestID()
	}
	if err != nil {
		_ = m.bus.ReplyErr(msg, types.MgrCluster, wire.ErrCodeGeneric, err.Error())
		return
	}

	newcomer := types.SiteInfo{
		ID:       id,
		PhysAddr: req.PhysAddr,
		Platform: req.Platform,
		Speed:    req.Speed,
		Reliable: req.Reliable,
	}
	// The merge fires OnJoin, where the gossip layer pushes the
	// newcomer's row to a fanout of peers at once (paper: "A's id and
	// status information is then propagated to the other sites of the
	// cluster"); the epidemic carries it to the rest.
	m.merge(newcomer)

	// Snapshot includes us, the newcomer, and everyone we know.
	m.mu.RLock()
	snapshot := make([]types.SiteInfo, 0, len(m.sites)+1)
	snapshot = append(snapshot, m.self)
	for _, s := range m.sites {
		snapshot = append(snapshot, s)
	}
	m.mu.RUnlock()

	// The requester had no logical id when it sent the sign-on (its Src
	// is InvalidSite), so a plain Reply could not be routed. Address the
	// reply to the id just assigned — the cluster list already maps it
	// to the requester's physical address — and correlate by sequence
	// number as usual.
	reply := &wire.Message{
		Src:     m.SelfID(),
		Dst:     id,
		SrcMgr:  types.MgrCluster,
		DstMgr:  msg.SrcMgr,
		Seq:     m.bus.NextSeq(),
		Reply:   msg.Seq,
		Payload: &wire.SignOnReply{Assigned: id, Cluster: snapshot},
	}
	_ = m.bus.SendMsg(reply)
}

func (m *Manager) handleIDBlock(msg *wire.Message, req *wire.IDBlockRequest) {
	m.mu.RLock()
	ids := m.ids
	m.mu.RUnlock()
	if ids == nil {
		_ = m.bus.ReplyErr(msg, types.MgrCluster, wire.ErrCodeGeneric, "not an id server")
		return
	}
	want := req.Want
	if want == 0 {
		want = 1
	}
	first, err := ids.grant(want)
	if err != nil {
		_ = m.bus.ReplyErr(msg, types.MgrCluster, wire.ErrCodeGeneric, err.Error())
		return
	}
	_ = m.bus.Reply(msg, types.MgrCluster, &wire.IDBlockReply{First: first, Count: want})
}
