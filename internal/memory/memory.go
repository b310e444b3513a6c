// Package memory implements the SDVM's attraction memory (paper §3.1, §4).
//
// The attraction memory is the COMA-inspired heart of the SDVM: it
// "contains the local part of the global memory" and "behaves like a
// COMA's attraction memory by attracting requested data to the local site
// transparently". It holds two kinds of global data that live by
// different rules, so it is two stores:
//
//   - the frame store keeps microframes, "a special kind of global data",
//     until they have received all their parameters. A frame fires once
//     and is gone; "every time a result of the computation of a
//     microthread is applied to a waiting microframe, the attraction
//     memory checks whether this was the last missing parameter. In this
//     case the microframe has become executable and is given to the
//     scheduling manager." The store also keeps the sender-side logs
//     that crash recovery replays ([4]).
//   - the object store keeps application memory objects, allocated with
//     a global address whose high part encodes the allocating site (the
//     object's homesite). Objects stay: they migrate to a writer, are
//     copied to readers as versioned replicas, and are found by a
//     redirect chase through the homesite directory ([5]).
//
// Frames and objects share one address space (a FrameID is a
// GlobalAddr), so each store keeps its own homesite directory for the
// addresses of its kind. Each store shards its address-keyed state: an
// address hashes to one of shardCount shards with its own mutex, so
// operations on distinct addresses proceed in parallel, and a frame
// never waits on an object's lock or the other way round. Neither store
// reads the other's state; Manager routes messages to them and runs the
// operations that cover both (evacuation, checkpoints, program GC).
package memory

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wire"
)

// shardBits selects the shard count of each store. 16 shards keep the
// per-shard collision probability low at typical core counts while the
// fixed arrays stay small enough to embed in the Manager.
const (
	shardBits  = 4
	shardCount = 1 << shardBits
)

// shardIndex maps an address to its shard. The multiply-xorshift mix
// spreads sequentially allocated Local values (the common case) across
// all shards instead of clustering them.
func shardIndex(a types.GlobalAddr) uint64 {
	h := a.Local*0x9e3779b97f4a7c15 + uint64(a.Home)*0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h & (shardCount - 1)
}

// FireFunc receives a microframe that just became executable. The daemon
// wires this to the scheduling manager's Enqueue. It must not block.
type FireFunc func(f *wire.Microframe)

// core is what the two stores share: the bus, the address cursor, the
// event counters and the paced retry loop. It holds no address-keyed
// state.
type core struct {
	bus       *msgbus.Bus
	nextLocal atomic.Uint64

	// counts is the one count of each event: Stats reads it, and
	// SetMetrics registers the same counters under their metric names.
	counts counters

	// done unblocks retry pauses when the daemon shuts down, so a
	// SendFor or fetch backoff never outlives the site.
	done      chan struct{}
	closeOnce sync.Once

	rngMu sync.Mutex
	// rng jitters retry backoff so sites that miss the same owner at
	// the same moment don't re-collide every round. Seeded per site by
	// the daemon (SetSeed) to keep chaos runs reproducible. guarded by rngMu
	rng *rand.Rand
}

// lock acquires a shard mutex, counting acquisitions that had to wait —
// the mem.shard.contention counter is the sharding's own health signal:
// it staying near zero under load means the partitioning works.
func (c *core) lock(mu *sync.Mutex) {
	if mu.TryLock() {
		return
	}
	c.counts.shardContention.Inc()
	mu.Lock()
}

// newAddr issues a fresh global address homed at this site.
func (c *core) newAddr() types.GlobalAddr {
	return types.GlobalAddr{Home: c.bus.Self(), Local: c.nextLocal.Add(1)}
}

// route picks the first site to ask about addr from one store's owner
// directory and remap: the known owner, else the homesite, else nobody.
// Caller holds the lock guarding both maps.
func (c *core) route(owner, remap map[types.GlobalAddr]types.SiteID, addr types.GlobalAddr) types.SiteID {
	if dst, ok := owner[addr]; ok {
		return dst
	}
	if dst, ok := remap[addr]; ok {
		return dst
	}
	if addr.Home != c.bus.Self() {
		return addr.Home
	}
	return types.InvalidSite
}

// applyHomeUpdate records a new owner of p.Addr in one store's owner
// directory (addresses homed here) or remap (broadcast by an evacuating
// site). held reports that the store holds the address itself, which no
// update overrides. Caller holds the lock guarding both maps.
func (c *core) applyHomeUpdate(owner, remap map[types.GlobalAddr]types.SiteID, p *wire.HomeUpdate, held bool) {
	self := c.bus.Self()
	switch {
	case p.Addr.Home == self && p.Owner == self:
		delete(owner, p.Addr) // we own it again
	case held || p.Owner == self:
	case p.Addr.Home == self:
		owner[p.Addr] = p.Owner
	default:
		remap[p.Addr] = p.Owner
	}
}

// retryPolicy paces parameter-send and fetch retries: directory updates
// propagate in a few ms, so start just above that and cap well below the
// crash-detection timescale. Jitter desynchronises competing fetchers.
var retryPolicy = backoff.Policy{
	Min:    5 * time.Millisecond,
	Max:    100 * time.Millisecond,
	Jitter: 0.5,
}

// retry runs attempt up to rounds times until it reports done, pausing a
// jittered, growing delay between attempts and counting each repeat in
// fetch_retries. It returns the last attempt's error, and stops early
// when the site closes: a retry can never succeed then.
func (c *core) retry(rounds int, attempt func() (done bool, err error)) error {
	var err error
	for round := 0; round < rounds; round++ {
		var done bool
		if done, err = attempt(); done {
			return err
		}
		c.counts.fetchRetries.Inc()
		c.rngMu.Lock()
		d := retryPolicy.Delay(round, c.rng)
		c.rngMu.Unlock()
		t := time.NewTimer(d)
		select {
		case <-c.done:
			t.Stop()
			return err
		case <-t.C:
		}
	}
	return err
}

// counters hold the manager's statistics as atomics so hot paths can
// bump them without widening any shard's critical section.
type counters struct {
	allocs          metrics.Counter
	localReads      metrics.Counter
	remoteReads     metrics.Counter
	localWrites     metrics.Counter
	remoteWrites    metrics.Counter
	paramsApplied   metrics.Counter
	framesFired     metrics.Counter
	migrations      metrics.Counter
	fetchRetries    metrics.Counter
	invalidates     metrics.Counter
	invalidateAcks  metrics.Counter
	shardContention metrics.Counter
	replicaHits     metrics.Counter
	replicaInvals   metrics.Counter
	homeMigrations  metrics.Counter
}

// Stats counts attraction-memory activity for the site manager.
type Stats struct {
	Allocs          uint64
	LocalReads      uint64
	RemoteReads     uint64
	LocalWrites     uint64
	RemoteWrites    uint64
	ParamsApplied   uint64
	FramesFired     uint64
	Migrations      uint64
	Invalidates     uint64 // replicas dropped after a remote write
	InvalidateAcks  uint64 // invalidation round-trips confirmed by a Barrier reply
	ShardContention uint64 // shard-lock acquisitions that had to wait
	ReplicaHits     uint64 // reads served from a versioned read replica
	ReplicaInvals   uint64 // replica entries purged by invalidation or site departure
	HomeMigrations  uint64 // heat-triggered ownership pushes toward a dominant writer
}

// Manager is one site's attraction memory: a frame store and an object
// store over one bus. It embeds both, so each store's own API (NewFrame
// and SendFor, Alloc, Read and Write, …) is the Manager's; the methods
// defined here act on both stores.
type Manager struct {
	core
	frameStore
	objectStore
}

// New returns an attraction memory bound to bus, delivering executable
// frames through fire. It registers itself for MgrMemory.
func New(bus *msgbus.Bus, fire FireFunc) *Manager {
	m := &Manager{core: core{
		bus:  bus,
		done: make(chan struct{}),
		rng:  rand.New(rand.NewSource(1)),
	}}
	m.frameStore.init(&m.core, fire)
	m.objectStore.init(&m.core)
	bus.Register(types.MgrMemory, m)
	return m
}

// SetMetrics registers the manager's counters and installs its
// histogram. Called once at daemon construction; a nil registry leaves
// the counters unnamed and the histogram off.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c := &m.counts
	reg.Register("mem.local_reads", &c.localReads)
	reg.Register("mem.remote_reads", &c.remoteReads)
	reg.Register("mem.local_writes", &c.localWrites)
	reg.Register("mem.remote_writes", &c.remoteWrites)
	reg.Register("mem.params_applied", &c.paramsApplied)
	reg.Register("mem.frames_fired", &c.framesFired)
	reg.Register("mem.migrations", &c.migrations)
	reg.Register("mem.fetch_retries", &c.fetchRetries)
	reg.Register("mem.invalidates", &c.invalidates)
	reg.Register("mem.invalidate_acks", &c.invalidateAcks)
	reg.Register("mem.shard.contention", &c.shardContention)
	reg.Register("mem.replica.hits", &c.replicaHits)
	reg.Register("mem.replica.invalidations", &c.replicaInvals)
	reg.Register("mem.home.migrations", &c.homeMigrations)
	m.invalidateRTT = reg.Histogram("mem.invalidate_rtt", nil)
	reg.GaugeFunc("mem.objects", func() int64 { return int64(m.ObjectCount()) })
	reg.GaugeFunc("mem.frames_waiting", func() int64 { return int64(m.FrameCount()) })
}

// SetTracer installs the event tracer (nil = off).
func (m *Manager) SetTracer(t *trace.Tracer) { m.tr = t }

// SetSeed reseeds the retry-jitter RNG. The daemon calls it once at
// construction with a per-site seed so chaos runs are reproducible.
func (m *Manager) SetSeed(seed int64) {
	m.rngMu.Lock()
	m.rng = rand.New(rand.NewSource(seed))
	m.rngMu.Unlock()
}

// SetTrafficHook installs the accounting manager's meter for parameter
// data produced on behalf of a program.
func (m *Manager) SetTrafficHook(f func(prog types.ProgramID, bytes int)) {
	if f != nil {
		m.traffic = f
	}
}

// Close interrupts every in-flight retry pause. Idempotent; called by
// the daemon on SignOff and Kill.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.done) })
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	c := &m.counts
	return Stats{
		Allocs:          c.allocs.Load(),
		LocalReads:      c.localReads.Load(),
		RemoteReads:     c.remoteReads.Load(),
		LocalWrites:     c.localWrites.Load(),
		RemoteWrites:    c.remoteWrites.Load(),
		ParamsApplied:   c.paramsApplied.Load(),
		FramesFired:     c.framesFired.Load(),
		Migrations:      c.migrations.Load(),
		Invalidates:     c.invalidates.Load(),
		InvalidateAcks:  c.invalidateAcks.Load(),
		ShardContention: c.shardContention.Load(),
		ReplicaHits:     c.replicaHits.Load(),
		ReplicaInvals:   c.replicaInvals.Load(),
		HomeMigrations:  c.homeMigrations.Load(),
	}
}

// HandleMessage implements msgbus.Handler: frame traffic goes to the
// frame store, object traffic to the object store, and a HomeUpdate —
// whose address may name either — to both.
func (m *Manager) HandleMessage(msg *wire.Message) {
	switch msg.Payload.(type) {
	case *wire.ApplyParam, *wire.FrameRelocate:
		m.frameStore.HandleMessage(msg)
	case *wire.HomeUpdate:
		m.frameStore.HandleMessage(msg)
		m.objectStore.HandleMessage(msg)
	default:
		m.objectStore.HandleMessage(msg)
	}
}

// OnSiteCrashed severs coherence ties to dead, then replays this site's
// logs: frames granted to the dead site re-enter the dataflow here, and
// every logged parameter of still-running programs is resent (stale
// copies are dropped at the receivers). Replicas go first: those the dead
// site served may predate whatever checkpoint recovery restores, and its
// copyset entries would make every future write wait out the
// invalidation deadline for an ack that never comes.
func (m *Manager) OnSiteCrashed(dead types.SiteID, running func(types.ProgramID) bool) {
	m.DropSiteReplicas(dead)
	m.replay(dead, running)
}

// EvacuateTo hands every resident frame and object to successor — the
// sign-off protocol's data phase (paper §3.4: "all microframes and the
// local part of the global memory have to be relocated to other sites
// before shutdown"). Peers are told the new owner, before the data
// moves, so the directories stay coherent and in-flight traffic
// re-routes even though this site is about to vanish.
func (m *Manager) EvacuateTo(successor types.SiteID) error {
	frames, updates := m.frameStore.evacuate(successor)
	objects, objUpdates := m.objectStore.evacuate(successor)
	for _, u := range append(updates, objUpdates...) {
		_ = m.bus.Send(types.Broadcast, types.MgrMemory, types.MgrMemory, u)
	}
	if len(objects) > 0 {
		if err := m.bus.Send(successor, types.MgrMemory, types.MgrMemory,
			&wire.MemMigrate{Objects: objects}); err != nil {
			return fmt.Errorf("memory: evacuate objects: %w", err)
		}
	}
	if len(frames) > 0 {
		if err := m.bus.Send(successor, types.MgrMemory, types.MgrMemory,
			&wire.FrameRelocate{Frames: frames}); err != nil {
			return fmt.Errorf("memory: evacuate frames: %w", err)
		}
	}
	return nil
}

// Snapshot returns deep copies of all resident frames and objects of one
// program, for checkpointing.
func (m *Manager) Snapshot(prog types.ProgramID) (frames []*wire.Microframe, objects []wire.MemObject) {
	return m.frameStore.snapshot(prog), m.objectStore.snapshot(prog)
}

// Restore adopts checkpointed state (crash recovery): frames re-enter
// the dataflow, objects become resident here. Ownership updates are
// broadcast — the restored addresses' homesite is typically the dead
// site, so a directed directory update would go nowhere.
func (m *Manager) Restore(frames []*wire.Microframe, objects []wire.MemObject) {
	m.install(objects)
	self := m.bus.Self()
	for i := range objects {
		if objects[i].Addr.Home != self {
			_ = m.bus.Send(types.Broadcast, types.MgrMemory, types.MgrMemory,
				&wire.HomeUpdate{Addr: objects[i].Addr, Owner: self})
		}
	}
	for _, f := range frames {
		m.AdoptFrame(f.Clone())
		if f.ID.Home != self {
			_ = m.bus.Send(types.Broadcast, types.MgrMemory, types.MgrMemory,
				&wire.HomeUpdate{Addr: f.ID, Owner: self})
		}
	}
}

// DropProgram discards all state of a terminated program ("a flag that
// the program has terminated and thus its microthreads can safely be
// deleted from memory", paper §4): its frames and log entries, its
// objects and this site's replicas of them. Other programs' state stays.
func (m *Manager) DropProgram(prog types.ProgramID) {
	m.frameStore.dropProgram(prog)
	m.objectStore.dropProgram(prog)
}
