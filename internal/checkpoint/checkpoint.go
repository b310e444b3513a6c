// Package checkpoint implements the SDVM's crash management
// (paper §2.2, §6 and reference [4]: Haase/Eschmann, "Crash management
// for distributed parallel systems").
//
// Two cooperating mechanisms live here:
//
//   - Checkpointing: each site periodically snapshots the local state of
//     every running program — waiting microframes in the attraction
//     memory, queued frames in the scheduler, resident memory objects —
//     and replicates it to a checkpoint site.
//
//   - Crash detection: a heartbeat pings peers; a site that misses
//     several consecutive probes is declared crashed, and the gossip
//     layer spreads the verdict. Sites holding checkpoints of the dead
//     site's state then restore it locally, re-entering the lost
//     microframes into the dataflow.
//
// Recovery is at-least-once: frames executed after the last checkpoint
// re-execute, and their (re-)sent results land on already-consumed
// microframes, where the attraction memory drops them. Applications
// therefore observe a correct final result, paid for with some duplicated
// work — the paper's "a recovery costs time and resources nonetheless".
package checkpoint

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/types"
	"repro/internal/wire"
)

// Config parameterizes crash management.
type Config struct {
	// Interval between checkpoints; 0 disables checkpointing.
	Interval time.Duration
	// HeartbeatEvery is the probe period; 0 disables crash detection.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout bounds one probe.
	HeartbeatTimeout time.Duration
	// MissLimit is how many consecutive missed probes declare a crash.
	MissLimit int
}

// ringProbes bounds the heartbeat's probe set. A site with at most this
// many peers probes all of them; a larger cluster's site probes only its
// ringProbes successors on the sorted roster, which keeps every site
// covered by three independent detectors, so one slow prober doesn't
// stall detection, while cluster-wide probe traffic stays O(N) instead
// of O(N²).
const ringProbes = 3

// ackTimeout bounds the wait for a remote CheckpointAck; a missed ack
// only costs one interval — the next checkpoint supersedes the epoch.
const ackTimeout = time.Second

// stored is one replicated checkpoint: origin site's state for a program.
type stored struct {
	epoch   uint64
	frames  []*wire.Microframe
	objects []wire.MemObject
}

type storeKey struct {
	prog   types.ProgramID
	origin types.SiteID
}

// Manager is one site's crash manager.
type Manager struct {
	bus   *msgbus.Bus
	cm    *cluster.Manager
	mem   *memory.Manager
	sched *sched.Manager
	pm    *program.Manager
	cfg   Config

	mu     sync.Mutex
	store  map[storeKey]*stored
	epoch  uint64
	misses map[types.SiteID]int
	// maxSeen tracks the highest epoch ever received per store key.
	// The chaos invariant checker compares it against the stored epoch:
	// if they ever diverge, an older checkpoint overwrote a newer one —
	// a monotonicity violation that recovery would silently amplify.
	// Entries die with their store entry (a departed origin's next
	// incarnation starts a fresh epoch sequence). guarded by mu
	maxSeen map[storeKey]uint64

	// The one count of each event: the accessors read them, and
	// SetMetrics registers them under their metric names.
	recovered metrics.Counter // programs restored after crashes
	taken     metrics.Counter // checkpoints taken
	acked     metrics.Counter // checkpoints confirmed stored by the remote site
	stored    metrics.Counter // checkpoints accepted from peers

	// accuse receives the crash verdicts of a site that probes only its
	// ring successors, as suspicion for the gossip layer to confirm.
	accuse func(types.SiteID)

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New returns a crash manager registered for MgrCheckpoint. It hooks the
// cluster manager's OnLeave to trigger recovery for crashed sites.
// accuse (gossip.Manager.Accuse) receives the crash verdicts of a site
// that probes only its ring successors: suspicion, not removal. It must
// not be nil.
func New(bus *msgbus.Bus, cm *cluster.Manager, mem *memory.Manager, s *sched.Manager, pm *program.Manager, accuse func(types.SiteID), cfg Config) *Manager {
	if accuse == nil {
		panic("checkpoint: New needs an accuser")
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 500 * time.Millisecond
	}
	if cfg.MissLimit <= 0 {
		cfg.MissLimit = 3
	}
	m := &Manager{
		bus:     bus,
		cm:      cm,
		mem:     mem,
		sched:   s,
		pm:      pm,
		accuse:  accuse,
		cfg:     cfg,
		store:   make(map[storeKey]*stored),
		maxSeen: make(map[storeKey]uint64),
		misses:  make(map[types.SiteID]int),
		done:    make(chan struct{}),
	}
	bus.Register(types.MgrCheckpoint, m)
	cm.OnLeave(func(id types.SiteID, crashed bool) {
		if crashed {
			go m.recover(id)
		} else {
			// A controlled sign-off relocated its state already; its
			// checkpoints here are stale.
			m.dropOrigin(id)
		}
	})
	return m
}

// Start launches the checkpoint and heartbeat loops.
func (m *Manager) Start() {
	if m.cfg.Interval > 0 {
		m.wg.Add(1)
		go m.checkpointLoop()
	}
	if m.cfg.HeartbeatEvery > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
}

// Close stops the loops.
func (m *Manager) Close() {
	m.once.Do(func() { close(m.done) })
	m.wg.Wait()
}

// Taken returns the number of checkpoints this site has taken.
func (m *Manager) Taken() uint64 { return m.taken.Load() }

// Recovered returns the number of crash recoveries this site performed.
func (m *Manager) Recovered() uint64 { return m.recovered.Load() }

// LedgerEntry describes one stored remote checkpoint alongside the
// highest epoch ever received for the same (program, origin) key.
type LedgerEntry struct {
	Program types.ProgramID
	Origin  types.SiteID
	Epoch   uint64 // epoch of the checkpoint currently stored
	MaxSeen uint64 // highest epoch ever received for this key
}

// StoreLedger snapshots the stored checkpoints with their high-water
// epochs. The chaos invariant "monotone checkpoint generations" asserts
// Epoch == MaxSeen for every entry: the replica never let an older
// generation overwrite a newer one.
func (m *Manager) StoreLedger() []LedgerEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LedgerEntry, 0, len(m.store))
	for key, cp := range m.store {
		out = append(out, LedgerEntry{
			Program: key.prog,
			Origin:  key.origin,
			Epoch:   cp.epoch,
			MaxSeen: m.maxSeen[key],
		})
	}
	return out
}

// SetMetrics registers the manager's counters. Must be called before
// Start; a nil registry leaves them unnamed.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	reg.Register("ckpt.taken", &m.taken)
	reg.Register("ckpt.acked", &m.acked)
	reg.Register("ckpt.recovered", &m.recovered)
	reg.Register("ckpt.stored", &m.stored)
}

// StoredFor reports whether this site holds a checkpoint of origin's
// state for prog (test/diagnostic hook).
func (m *Manager) StoredFor(prog types.ProgramID, origin types.SiteID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.store[storeKey{prog, origin}]
	return ok
}

// CheckpointNow takes and replicates a checkpoint of every running
// program immediately (also used by tests and before risky operations).
func (m *Manager) CheckpointNow() {
	for _, prog := range m.pm.Programs() {
		m.checkpointProgram(prog)
	}
}

func (m *Manager) checkpointLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m.CheckpointNow()
		case <-m.done:
			return
		}
	}
}

// checkpointProgram snapshots local state of prog and ships it to the
// checkpoint site.
func (m *Manager) checkpointProgram(prog types.ProgramID) {
	frames, objects := m.mem.Snapshot(prog)
	frames = append(frames, m.sched.SnapshotFrames(prog)...)
	if len(frames) == 0 && len(objects) == 0 {
		return
	}
	dst := m.checkpointSite()
	if dst == types.InvalidSite {
		return // single-site cluster: nowhere to replicate
	}

	m.mu.Lock()
	m.epoch++
	epoch := m.epoch
	m.mu.Unlock()
	m.taken.Inc()

	// Request, not Send: a checkpoint that never reached the replica is
	// worthless, so wait (bounded) for the CheckpointAck and count only
	// confirmed epochs. A timeout is tolerable — the next interval
	// re-ships a fresher snapshot anyway.
	reply, err := m.bus.Request(dst, types.MgrCheckpoint, types.MgrCheckpoint, &wire.CheckpointStore{
		Program: prog,
		Epoch:   epoch,
		Origin:  m.bus.Self(),
		Frames:  frames,
		Objects: objects,
	}, ackTimeout)
	if err != nil {
		return
	}
	if ack, ok := reply.Payload.(*wire.CheckpointAck); ok && ack.Program == prog && ack.Epoch == epoch {
		m.acked.Inc()
	}
}

// checkpointSite picks where this site's checkpoints go. Reliable-core
// sites (paper §2.2: "a core of reliable sites which each act as servers
// for a number of unsafe sites") are preferred — the next reliable site
// in id order after self; without a core, the next live site in id
// order. Deterministic, spreads load, never self.
func (m *Manager) checkpointSite() types.SiteID {
	self := m.bus.Self()
	if reliable := m.cm.ReliableSites(); len(reliable) > 0 {
		for _, id := range reliable {
			if id > self {
				return id
			}
		}
		if reliable[0] != self {
			return reliable[0]
		}
		if len(reliable) > 1 {
			return reliable[1]
		}
		// Self is the only reliable site; fall through to any peer.
	}
	sites := m.cm.SiteIDs()
	if len(sites) < 2 {
		return types.InvalidSite
	}
	for i, id := range sites {
		if id == self {
			return sites[(i+1)%len(sites)]
		}
	}
	return sites[0]
}

func (m *Manager) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m.probeAll()
		case <-m.done:
			return
		}
	}
}

// probeAll pings this period's probe set once, bumping miss counters on
// silence.
func (m *Manager) probeAll() {
	self := m.bus.Self()
	for _, id := range m.probeSet(self) {
		id := id
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			_, err := m.bus.Request(id, types.MgrCluster, types.MgrCheckpoint,
				&wire.Ping{Nonce: uint64(time.Now().UnixNano())}, m.cfg.HeartbeatTimeout)
			m.mu.Lock()
			if err != nil {
				m.misses[id]++
				missed := m.misses[id]
				m.mu.Unlock()
				if missed >= m.cfg.MissLimit {
					m.declareCrash(id)
				}
				return
			}
			delete(m.misses, id)
			m.mu.Unlock()
		}()
	}
}

// probeSet returns the peers to ping this period: the whole roster when
// it has at most ringProbes peers, otherwise ringProbes successors of
// the local id on the sorted roster — every site is watched by its
// predecessors, and the verdict a detector produces reaches the rest of
// the cluster epidemically.
func (m *Manager) probeSet(self types.SiteID) []types.SiteID {
	ids := m.cm.SiteIDs() // sorted, self included
	peers := ids[:0]
	for _, id := range ids {
		if id != self {
			peers = append(peers, id)
		}
	}
	if probesEveryPeer(len(peers)) {
		return peers
	}
	// First ringProbes ids after self in ring order.
	start := 0
	for start < len(peers) && peers[start] < self {
		start++
	}
	out := make([]types.SiteID, 0, ringProbes)
	for i := 0; i < ringProbes; i++ {
		out = append(out, peers[(start+i)%len(peers)])
	}
	return out
}

// probesEveryPeer reports whether a site with the given number of peers
// probes all of them — the one condition behind both the probe set and
// the weight of its verdicts.
func probesEveryPeer(peers int) bool { return peers <= ringProbes }

// declareCrash acts on a heartbeat verdict. A site that probes every
// peer is authoritative: it removes the dead site locally, which
// triggers recovery through the OnLeave hook and turns into a gossip
// tombstone there. A ring-probing site only accuses: a falsely accused
// site refutes it epidemically (probes fail routinely during join
// waves, when the target cannot yet route its Pong back to a brand-new
// prober); a dead one ages to a tombstone after deadAfter gossip rounds
// and is removed then.
func (m *Manager) declareCrash(dead types.SiteID) {
	m.mu.Lock()
	delete(m.misses, dead)
	m.mu.Unlock()
	if _, known := m.cm.Lookup(dead); !known {
		return // someone else already declared it
	}
	if probesEveryPeer(m.cm.Size() - 1) {
		m.cm.Remove(dead, true)
		return
	}
	m.accuse(dead)
}

// recover restores every checkpoint this site holds for the dead site.
func (m *Manager) recover(dead types.SiteID) {
	m.mu.Lock()
	var restores []*stored
	for key, cp := range m.store {
		if key.origin == dead {
			restores = append(restores, cp)
			delete(m.store, key)
			delete(m.maxSeen, key)
		}
	}
	m.mu.Unlock()
	m.recovered.Add(uint64(len(restores)))

	for _, cp := range restores {
		m.mem.Restore(cp.frames, cp.objects)
	}
}

// dropOrigin discards checkpoints from a site that signed off cleanly.
func (m *Manager) dropOrigin(origin types.SiteID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.store {
		if key.origin == origin {
			delete(m.store, key)
			delete(m.maxSeen, key)
		}
	}
}

// DropProgram discards stored checkpoints of a terminated program.
func (m *Manager) DropProgram(prog types.ProgramID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.store {
		if key.prog == prog {
			delete(m.store, key)
			delete(m.maxSeen, key)
		}
	}
}

// HandleMessage implements msgbus.Handler.
func (m *Manager) HandleMessage(msg *wire.Message) {
	switch p := msg.Payload.(type) {
	case *wire.CheckpointStore:
		key := storeKey{p.Program, p.Origin}
		m.mu.Lock()
		if p.Epoch > m.maxSeen[key] {
			m.maxSeen[key] = p.Epoch
		}
		if cur, ok := m.store[key]; !ok || p.Epoch > cur.epoch {
			m.store[key] = &stored{epoch: p.Epoch, frames: p.Frames, objects: p.Objects}
		}
		m.mu.Unlock()
		m.stored.Inc()
		_ = m.bus.Reply(msg, types.MgrCheckpoint, &wire.CheckpointAck{Program: p.Program, Epoch: p.Epoch})
	}
}
