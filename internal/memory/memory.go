// Package memory implements the SDVM's attraction memory (paper §3.1, §4).
//
// The attraction memory is the COMA-inspired heart of the SDVM: it
// "contains the local part of the global memory" and "behaves like a
// COMA's attraction memory by attracting requested data to the local site
// transparently". Three kinds of state live in it:
//
//   - application memory objects, allocated with a global address whose
//     high part encodes the allocating site (the object's homesite);
//   - microframes, "a special kind of global data", stored and migrated
//     until they have received all their parameters;
//   - the homesite directory ([5]): every site tracks the current owner
//     of the objects it created, so a cache miss anywhere can be resolved
//     by asking the address's homesite, which answers or redirects.
//
// The central dataflow event also happens here: "every time a result of
// the computation of a microthread is applied to a waiting microframe,
// the attraction memory checks whether this was the last missing
// parameter. In this case the microframe has become executable and is
// given to the scheduling manager."
//
// All address-keyed state is sharded: each global address hashes to one
// of shardCount shards with its own mutex, so local reads, writes and
// parameter applications on distinct addresses proceed in parallel
// across cores instead of serializing on one manager-wide lock.
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

// maxRedirects bounds a read/write resolution chain. Ownership can move
// while we chase it, but never in a cycle longer than the cluster.
const maxRedirects = 16

// shardBits selects the shard count. 16 shards keep the per-shard
// collision probability low at typical core counts while the fixed
// array stays small enough to embed in the Manager.
const (
	shardBits  = 4
	shardCount = 1 << shardBits
)

// FireFunc receives a microframe that just became executable. The daemon
// wires this to the scheduling manager's Enqueue. It must not block.
type FireFunc func(f *wire.Microframe)

// memShard holds every piece of address-keyed state for one slice of
// the address space. FrameID aliases GlobalAddr, so all maps concerning
// one address land in the same shard and one lock covers its state
// transitions (frame waiting → consumed, object resident → remote, …).
type memShard struct {
	mu sync.Mutex

	// objects owned (resident) at this site, by address. guarded by mu
	objects map[types.GlobalAddr]*wire.MemObject
	// objOwner is the homesite directory for objects homed here:
	// address -> site currently owning it. Entries exist only while the
	// object lives elsewhere. guarded by mu
	objOwner map[types.GlobalAddr]types.SiteID

	// frames waiting (incomplete) at this site. guarded by mu
	frames map[types.FrameID]*wire.Microframe
	// frameOwner is the directory for frames homed here but currently
	// held elsewhere (after migration at sign-off or help replies of
	// incomplete frames). guarded by mu
	frameOwner map[types.FrameID]types.SiteID

	// remap overrides the homesite for addresses whose home left the
	// cluster; learned from broadcast HomeUpdates during sign-off.
	// guarded by mu
	remap map[types.GlobalAddr]types.SiteID

	// readCache holds validated read replicas of remote objects
	// (COMA read replication, paper §4: objects "migrate or even be
	// copied to other sites"). Coherence is write-invalidate: the owner
	// tracks a copyset per object and sends invalidations when the
	// object changes or migrates. Each entry remembers the version it
	// mirrors and the site that served it, so replicas sourced from a
	// departed site can be purged. guarded by mu
	readCache map[types.GlobalAddr]replica
	// copies is the owner-side copyset: sites holding read replicas of a
	// locally owned object. guarded by mu
	copies map[types.GlobalAddr]map[types.SiteID]bool
	// fetching single-flights remote reads: concurrent readers of one
	// address share a single fetch instead of a thundering herd.
	// guarded by mu
	fetching map[types.GlobalAddr]*fetchState
	// heat is the owner-side decayed per-writer access count for each
	// locally owned object — the signal that migrates the home toward
	// its hottest writer (noteWriteLocked). guarded by mu
	heat map[types.GlobalAddr]map[types.SiteID]uint32

	// consumed records frames that already fired, distinguishing the
	// programming error "parameter for a consumed frame" from routing
	// races worth retrying. guarded by mu
	consumed map[types.FrameID]bool

	// pendingRetries caps re-queues of parameters whose target frame is
	// in flight, so a parameter for a frame that never materializes is
	// eventually dropped instead of looping forever. guarded by mu
	pendingRetries map[wire.Target]int
}

func (s *memShard) init() {
	// Runs before the Manager is published, but taking the lock keeps
	// the guarded-by discipline uniform (and costs nothing once).
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = make(map[types.GlobalAddr]*wire.MemObject)
	s.objOwner = make(map[types.GlobalAddr]types.SiteID)
	s.frames = make(map[types.FrameID]*wire.Microframe)
	s.frameOwner = make(map[types.FrameID]types.SiteID)
	s.remap = make(map[types.GlobalAddr]types.SiteID)
	s.readCache = make(map[types.GlobalAddr]replica)
	s.copies = make(map[types.GlobalAddr]map[types.SiteID]bool)
	s.fetching = make(map[types.GlobalAddr]*fetchState)
	s.heat = make(map[types.GlobalAddr]map[types.SiteID]uint32)
	s.consumed = make(map[types.FrameID]bool)
	s.pendingRetries = make(map[wire.Target]int)
}

// replica is one cached read copy of a remote object.
type replica struct {
	data    []byte
	version uint64       // object version the bytes correspond to
	from    types.SiteID // owner that served the copy
}

// fetchState is the single-flight marker for one in-progress remote
// read. An invalidation arriving while the fetch is in flight poisons
// it: the owner has already removed this site from the copyset (the
// request that registered it raced the write), so installing the
// fetched bytes would create a replica no future write can invalidate.
// poisoned is guarded by the shard mutex.
type fetchState struct {
	done     chan struct{}
	poisoned bool
}

// purgeReplicaLocked removes any local replica of addr and poisons an
// in-flight fetch so a racing install cannot resurrect stale bytes.
// Caller holds s.mu. Reports whether a cached replica was dropped.
func (s *memShard) purgeReplicaLocked(addr types.GlobalAddr) bool {
	if st, ok := s.fetching[addr]; ok {
		st.poisoned = true
	}
	_, had := s.readCache[addr]
	if had {
		delete(s.readCache, addr)
	}
	return had
}

// Manager is one site's attraction memory.
type Manager struct {
	bus     *msgbus.Bus
	fire    FireFunc
	traffic func(prog types.ProgramID, bytes int)
	tr      *trace.Tracer

	nextLocal atomic.Uint64

	// shards partitions all address-keyed state; see memShard.
	shards [shardCount]memShard

	logMu sync.Mutex
	// Sender-side logs for crash recovery ([4]): paramLog keeps every
	// parameter sent to a remote frame, grantLog every frame handed to
	// a peer (help replies, pushes). When a peer is declared crashed,
	// Replay resends/re-injects them; duplicate applications are
	// rejected by the Filled/consumed guards, and deterministic
	// microthreads make re-execution converge on the same results.
	// guarded by logMu
	paramLog map[types.ProgramID][]loggedParam
	// guarded by logMu
	grantLog map[types.SiteID][]*wire.Microframe

	// counts is the one count of each event: Stats reads it, and
	// SetMetrics registers the same counters under their metric names.
	counts counters

	// invalidateRTT is the invalidation round-trip histogram; nil (inert)
	// unless SetMetrics installed a registry. Written once at daemon
	// construction.
	invalidateRTT *metrics.Histogram

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

// shardFor maps an address to its shard. The multiply-xorshift mix
// spreads sequentially allocated Local values (the common case) across
// all shards instead of clustering them.
func (m *Manager) shardFor(a types.GlobalAddr) *memShard {
	h := a.Local*0x9e3779b97f4a7c15 + uint64(a.Home)*0xbf58476d1ce4e5b9
	h ^= h >> 32
	return &m.shards[h&(shardCount-1)]
}

// lockShard acquires s.mu, counting acquisitions that had to wait — the
// mem.shard.contention counter is the sharding's own health signal: it
// staying near zero under load means the partitioning works.
func (m *Manager) lockShard(s *memShard) {
	if s.mu.TryLock() {
		return
	}
	m.counts.shardContention.Inc()
	s.mu.Lock()
}

// retryPolicy paces parameter-send and fetch retries: directory updates
// propagate in a few ms, so start just above that and cap well below the
// crash-detection timescale. Jitter desynchronises competing fetchers.
var retryPolicy = backoff.Policy{
	Min:    5 * time.Millisecond,
	Max:    100 * time.Millisecond,
	Jitter: 0.5,
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

// loggedParam is one replayable remote parameter application.
type loggedParam struct {
	target wire.Target
	data   []byte
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

// New returns an attraction memory bound to bus, delivering executable
// frames through fire. It registers itself for MgrMemory.
func New(bus *msgbus.Bus, fire FireFunc) *Manager {
	m := &Manager{
		bus:      bus,
		fire:     fire,
		paramLog: make(map[types.ProgramID][]loggedParam),
		grantLog: make(map[types.SiteID][]*wire.Microframe),
		done:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(1)),
	}
	for i := range m.shards {
		m.shards[i].init()
	}
	m.traffic = func(types.ProgramID, int) {}
	bus.Register(types.MgrMemory, m)
	return m
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

// retryDelay computes the jittered backoff for the given retry attempt.
func (m *Manager) retryDelay(attempt int) time.Duration {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return retryPolicy.Delay(attempt, m.rng)
}

// Close interrupts every in-flight retry pause. Idempotent; called by
// the daemon on SignOff and Kill.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.done) })
}

// pause sleeps for d unless the manager is closed first; it reports
// whether the caller should keep retrying.
func (m *Manager) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.done:
		return false
	case <-t.C:
		return true
	}
}

// SetTrafficHook installs the accounting manager's meter for parameter
// data produced on behalf of a program.
func (m *Manager) SetTrafficHook(f func(prog types.ProgramID, bytes int)) {
	if f != nil {
		m.traffic = f
	}
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Allocs:          m.counts.allocs.Load(),
		LocalReads:      m.counts.localReads.Load(),
		RemoteReads:     m.counts.remoteReads.Load(),
		LocalWrites:     m.counts.localWrites.Load(),
		RemoteWrites:    m.counts.remoteWrites.Load(),
		ParamsApplied:   m.counts.paramsApplied.Load(),
		FramesFired:     m.counts.framesFired.Load(),
		Migrations:      m.counts.migrations.Load(),
		Invalidates:     m.counts.invalidates.Load(),
		InvalidateAcks:  m.counts.invalidateAcks.Load(),
		ShardContention: m.counts.shardContention.Load(),
		ReplicaHits:     m.counts.replicaHits.Load(),
		ReplicaInvals:   m.counts.replicaInvals.Load(),
		HomeMigrations:  m.counts.homeMigrations.Load(),
	}
}

// newAddr issues a fresh global address homed at this site.
func (m *Manager) newAddr() types.GlobalAddr {
	return types.GlobalAddr{Home: m.bus.Self(), Local: m.nextLocal.Add(1)}
}

// ---------------------------------------------------------------------------
// Local API: called by the execution layer (may block on remote traffic).

// Alloc creates a memory object of the given contents for program prog,
// homed and initially owned at this site, and returns its global address
// — "it will receive a global memory address ... and is thus accessible
// from all sites in the cluster" (paper §4).
func (m *Manager) Alloc(prog types.ProgramID, data []byte) types.GlobalAddr {
	addr := m.newAddr()
	s := m.shardFor(addr)
	m.lockShard(s)
	s.objects[addr] = &wire.MemObject{
		Addr:    addr,
		Program: prog,
		Data:    append([]byte(nil), data...),
	}
	s.mu.Unlock()
	m.counts.allocs.Inc()
	return addr
}

// NewFrame allocates a microframe homed at this site. A zero-arity frame
// is executable immediately and goes straight to the scheduler; any other
// frame waits in the attraction memory for its parameters.
func (m *Manager) NewFrame(thread types.ThreadID, arity int, prio types.Priority, hint uint32, targets ...wire.Target) types.FrameID {
	id := m.newAddr()
	f := wire.NewMicroframe(id, thread, arity, targets...)
	f.Prio = prio
	f.Hint = hint
	s := m.shardFor(id)
	m.lockShard(s)
	if arity == 0 {
		s.consumed[id] = true
		s.mu.Unlock()
		m.counts.framesFired.Inc()
		m.tr.Record(trace.EvFrameCreated, id, thread, "zero arity")
		m.tr.Record(trace.EvFrameFired, id, thread, "")
		m.fire(f)
		return id
	}
	s.frames[id] = f
	s.mu.Unlock()
	if m.tr.Enabled() { // formatting the detail allocates; skip it when nobody reads it
		m.tr.Record(trace.EvFrameCreated, id, thread, fmt.Sprintf("arity %d", arity))
	}
	return id
}

// AdoptFrame registers a frame that migrated here (help reply of a
// waiting frame, sign-off relocation, checkpoint recovery). The frame's
// homesite is informed so future parameters find it.
func (m *Manager) AdoptFrame(f *wire.Microframe) {
	s := m.shardFor(f.ID)
	m.lockShard(s)
	if s.consumed[f.ID] {
		s.mu.Unlock()
		return
	}
	if f.Executable() {
		s.consumed[f.ID] = true
		s.mu.Unlock()
		m.counts.framesFired.Inc()
		m.fire(f)
		return
	}
	s.frames[f.ID] = f
	s.mu.Unlock()
	self := m.bus.Self()
	m.tr.Record(trace.EvReceived, f.ID, f.Thread, "incomplete frame adopted")

	if f.ID.Home != self {
		_ = m.bus.Send(f.ID.Home, types.MgrMemory, types.MgrMemory,
			&wire.HomeUpdate{Addr: f.ID, Owner: self})
	}
}

// Send applies one result datum to a parameter slot of a target frame,
// locally or across the cluster — the SDVM's fundamental dataflow step
// (paper §3.2, action 4). It retries transient routing failures: frames
// migrate, sites leave, directories lag.
func (m *Manager) Send(target wire.Target, data []byte) error {
	return m.SendFor(0, target, data)
}

// SendFor is Send with the owning program recorded in the crash-recovery
// log (prog 0 skips logging; used for bootstrap-internal sends).
func (m *Manager) SendFor(prog types.ProgramID, target wire.Target, data []byte) error {
	if prog != 0 {
		m.traffic(prog, len(data))
		m.logMu.Lock()
		m.paramLog[prog] = append(m.paramLog[prog], loggedParam{target, append([]byte(nil), data...)})
		m.logMu.Unlock()
	}
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		done, err := m.trySend(target, data)
		if done {
			return err
		}
		lastErr = err
		m.counts.fetchRetries.Inc()
		if !m.pause(m.retryDelay(attempt)) {
			break // shutting down: the send can never succeed now
		}
	}
	return fmt.Errorf("memory: apply %v: %w", target, lastErr)
}

// RecordGrant logs a frame handed to a peer, for re-injection if that
// peer crashes before the frame's results are observed.
func (m *Manager) RecordGrant(grantee types.SiteID, f *wire.Microframe) {
	m.logMu.Lock()
	m.grantLog[grantee] = append(m.grantLog[grantee], f.Clone())
	m.logMu.Unlock()
}

// ReclaimGrants removes and returns the logged grants to grantee whose
// frame ids are in ids. The scheduler calls it when the help reply
// carrying those frames could not be delivered (the requester signed
// off gracefully, so no crash declaration will ever replay them).
// Sharing logMu with OnSiteCrashed makes the hand-back atomic with
// crash replay: a frame is either returned here or replayed there,
// never both.
func (m *Manager) ReclaimGrants(grantee types.SiteID, ids []types.FrameID) []*wire.Microframe {
	want := make(map[types.FrameID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	m.logMu.Lock()
	defer m.logMu.Unlock()
	var reclaimed, kept []*wire.Microframe
	for _, f := range m.grantLog[grantee] {
		if want[f.ID] {
			reclaimed = append(reclaimed, f)
		} else {
			kept = append(kept, f)
		}
	}
	if len(kept) == 0 {
		delete(m.grantLog, grantee)
	} else {
		m.grantLog[grantee] = kept
	}
	return reclaimed
}

// OnSiteCrashed replays this site's logs after dead was declared
// crashed: frames granted to the dead site re-enter the dataflow here,
// and every logged parameter of still-running programs is resent (stale
// copies are dropped at the receivers).
func (m *Manager) OnSiteCrashed(dead types.SiteID, running func(types.ProgramID) bool) {
	// First sever coherence state: replicas the dead site served may
	// predate whatever checkpoint recovery restores, and its copyset
	// entries would make every future write wait out the invalidation
	// deadline for an ack that never comes.
	m.DropSiteReplicas(dead)

	m.logMu.Lock()
	granted := m.grantLog[dead]
	delete(m.grantLog, dead)
	var params []loggedParam
	for prog, entries := range m.paramLog {
		if running == nil || running(prog) {
			params = append(params, entries...)
		}
	}
	m.logMu.Unlock()

	for _, f := range granted {
		if running == nil || running(f.Thread.Program) {
			m.AdoptFrame(f.Clone())
		}
	}
	for _, p := range params {
		// Ignore errors: most replays hit already-filled slots.
		_ = m.Send(p.target, p.data)
	}
}

// trySend attempts one delivery. done=false means "retry may help".
func (m *Manager) trySend(target wire.Target, data []byte) (done bool, err error) {
	s := m.shardFor(target.Addr)
	m.lockShard(s)
	if f, ok := s.frames[target.Addr]; ok {
		err := m.applyLocked(s, f, int(target.Slot), data)
		s.mu.Unlock()
		return true, err
	}
	if s.consumed[target.Addr] {
		s.mu.Unlock()
		return true, &types.AddrError{Err: types.ErrNoSuchFrame, Addr: target.Addr}
	}
	dst := m.routeFrameLocked(s, target.Addr)
	s.mu.Unlock()

	if dst == types.InvalidSite || dst == m.bus.Self() {
		// Nobody known to hold it (yet): relocation in flight.
		return false, &types.AddrError{Err: types.ErrNoSuchFrame, Addr: target.Addr}
	}
	sendErr := m.bus.Send(dst, types.MgrMemory, types.MgrMemory,
		&wire.ApplyParam{Dst: target, Data: data})
	if sendErr != nil {
		return false, sendErr
	}
	return true, nil
}

// applyLocked fills a slot of a frame held in shard s, firing it if
// complete. Caller holds s.mu; the fire callback runs without the lock.
func (m *Manager) applyLocked(s *memShard, f *wire.Microframe, slot int, data []byte) error {
	fires, err := f.Apply(slot, data)
	if err != nil {
		return err
	}
	m.counts.paramsApplied.Inc()
	traced := m.tr.Enabled()
	if !fires {
		if traced {
			m.tr.Record(trace.EvParamApplied, f.ID, f.Thread, fmt.Sprintf("slot %d, %d missing", slot, f.Missing()))
		}
		return nil
	}
	delete(s.frames, f.ID)
	s.consumed[f.ID] = true
	m.counts.framesFired.Inc()
	fire := m.fire
	s.mu.Unlock()
	if traced {
		m.tr.Record(trace.EvFrameFired, f.ID, f.Thread, fmt.Sprintf("last slot %d", slot))
	}
	fire(f)
	m.lockShard(s)
	return nil
}

// routeFrameLocked decides where a parameter for a non-resident frame
// should go. Caller holds s.mu.
func (m *Manager) routeFrameLocked(s *memShard, id types.FrameID) types.SiteID {
	if owner, ok := s.frameOwner[id]; ok {
		return owner
	}
	if owner, ok := s.remap[id]; ok {
		return owner
	}
	if id.Home != m.bus.Self() {
		return id.Home
	}
	return types.InvalidSite
}

// Read returns a copy of the object's current contents, fetching it from
// its owner if it is not resident ("when they are needed, they migrate to
// the corresponding site" — reads take a copy, write intent migrates).
func (m *Manager) Read(addr types.GlobalAddr) ([]byte, error) {
	s := m.shardFor(addr)
	for {
		m.lockShard(s)
		if o, ok := s.objects[addr]; ok {
			data := append([]byte(nil), o.Data...)
			s.mu.Unlock()
			m.counts.localReads.Inc()
			return data, nil
		}
		if rep, ok := s.readCache[addr]; ok {
			out := append([]byte(nil), rep.data...)
			s.mu.Unlock()
			m.counts.replicaHits.Inc()
			return out, nil
		}
		if st, inflight := s.fetching[addr]; inflight {
			// Another microthread is already fetching this object;
			// share its result instead of stampeding the owner.
			s.mu.Unlock()
			<-st.done
			continue
		}
		st := &fetchState{done: make(chan struct{})}
		s.fetching[addr] = st
		s.mu.Unlock()
		m.counts.remoteReads.Inc()

		rep, err := m.fetchReplica(addr)
		m.lockShard(s)
		if err == nil && !st.poisoned {
			s.readCache[addr] = rep
		}
		delete(s.fetching, addr)
		close(st.done)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		// The cached slice must not alias the caller's view.
		return append([]byte(nil), rep.data...), nil
	}
}

// fetchReplica retrieves a versioned read replica of addr from its
// current owner, following redirects with the same retry pacing as
// fetch. The owner registers this site in the object's copyset before
// answering, so the installed replica is covered by write-invalidation
// from the moment it exists.
func (m *Manager) fetchReplica(addr types.GlobalAddr) (replica, error) {
	var lastErr error
	for round := 0; round < 5; round++ {
		rep, retry, err := m.fetchReplicaOnce(addr)
		if err == nil {
			return rep, nil
		}
		if !retry {
			return replica{}, err
		}
		lastErr = err
		m.counts.fetchRetries.Inc()
		if !m.pause(m.retryDelay(round)) {
			break // shutting down: stop chasing the directory
		}
	}
	return replica{}, lastErr
}

// fetchReplicaOnce runs one redirect chase of the replica protocol.
// retry reports whether the failure is plausibly transient.
func (m *Manager) fetchReplicaOnce(addr types.GlobalAddr) (rep replica, retry bool, err error) {
	s := m.shardFor(addr)
	m.lockShard(s)
	dst := m.routeObjectLocked(s, addr)
	s.mu.Unlock()
	if dst == types.InvalidSite {
		return replica{}, false, &types.AddrError{Err: types.ErrNoSuchObject, Addr: addr}
	}

	for hop := 0; hop < maxRedirects; hop++ {
		reply, err := m.bus.Request(dst, types.MgrMemory, types.MgrMemory,
			&wire.MemReadReplica{Addr: addr}, 0)
		if err != nil {
			return replica{}, true, err
		}
		rd, ok := reply.Payload.(*wire.MemReplicaData)
		if !ok {
			return replica{}, false, fmt.Errorf("%w: mem replica reply %T", types.ErrBadMessage, reply.Payload)
		}
		switch {
		case rd.Found && rd.Redirect == types.InvalidSite:
			return replica{data: rd.Data, version: rd.Version, from: dst}, false, nil
		case rd.Redirect != types.InvalidSite && rd.Redirect != dst:
			dst = rd.Redirect
		default:
			return replica{}, true, &types.AddrError{Err: types.ErrNoSuchObject, Addr: addr}
		}
	}
	return replica{}, true, fmt.Errorf("memory: replica read %v: redirect chain too long", addr)
}

// Attract migrates the object to this site (ownership transfer) and
// returns a copy of its contents — COMA attraction on write intent.
func (m *Manager) Attract(addr types.GlobalAddr) ([]byte, error) {
	s := m.shardFor(addr)
	m.lockShard(s)
	if o, ok := s.objects[addr]; ok {
		data := append([]byte(nil), o.Data...)
		s.mu.Unlock()
		return data, nil
	}
	s.mu.Unlock()

	o, err := m.fetch(addr)
	if err != nil {
		return nil, err
	}

	m.lockShard(s)
	s.objects[addr] = o
	// The resident object supersedes any replica we held; a stale one
	// left here (or installed by a racing fetch) would resurface once
	// the object migrates away again.
	s.purgeReplicaLocked(addr)
	// Snapshot while still holding the lock: the moment the object is
	// installed, a concurrent local Write may mutate its backing array.
	data := append([]byte(nil), o.Data...)
	s.mu.Unlock()
	m.counts.migrations.Inc()
	self := m.bus.Self()

	// Keep the homesite directory current.
	if addr.Home != self {
		_ = m.bus.Send(addr.Home, types.MgrMemory, types.MgrMemory,
			&wire.HomeUpdate{Addr: addr, Owner: self})
	}
	return data, nil
}

// fetch resolves addr through the homesite directory and takes the
// object over from its owner, following redirects. Ownership can move
// mid-chase (directory updates are asynchronous), so an exhausted
// redirect chain is retried after a short pause rather than failed
// outright.
func (m *Manager) fetch(addr types.GlobalAddr) (*wire.MemObject, error) {
	var lastErr error
	for round := 0; round < 5; round++ {
		o, retry, err := m.fetchOnce(addr)
		if err == nil {
			return o, nil
		}
		if !retry {
			return nil, err
		}
		lastErr = err
		m.counts.fetchRetries.Inc()
		if !m.pause(m.retryDelay(round)) {
			break // shutting down: stop chasing the directory
		}
	}
	return nil, lastErr
}

// fetchOnce runs one redirect chase. retry reports whether the failure
// is plausibly transient (in-flight migration).
func (m *Manager) fetchOnce(addr types.GlobalAddr) (obj *wire.MemObject, retry bool, err error) {
	s := m.shardFor(addr)
	m.lockShard(s)
	dst := m.routeObjectLocked(s, addr)
	s.mu.Unlock()
	if dst == types.InvalidSite {
		return nil, false, &types.AddrError{Err: types.ErrNoSuchObject, Addr: addr}
	}

	for hop := 0; hop < maxRedirects; hop++ {
		reply, err := m.bus.Request(dst, types.MgrMemory, types.MgrMemory,
			&wire.MemRead{Addr: addr, Migrate: true}, 0)
		if err != nil {
			return nil, true, err
		}
		rr, ok := reply.Payload.(*wire.MemReadReply)
		if !ok {
			return nil, false, fmt.Errorf("%w: mem read reply %T", types.ErrBadMessage, reply.Payload)
		}
		switch {
		case rr.Found && rr.Redirect == types.InvalidSite:
			o := rr.Object
			return &o, false, nil
		case rr.Redirect != types.InvalidSite && rr.Redirect != dst:
			dst = rr.Redirect
		default:
			return nil, true, &types.AddrError{Err: types.ErrNoSuchObject, Addr: addr}
		}
	}
	return nil, true, fmt.Errorf("memory: read %v: redirect chain too long", addr)
}

// takeCopysetLocked removes and returns the copyset of addr, excluding
// skip (the site whose action triggered the invalidation — it holds the
// fresh version). The result lives in inv's reused scratch slice and is
// valid only until the next take; callers hand it straight to inv.add.
// Caller holds s.mu.
func (m *Manager) takeCopysetLocked(s *memShard, inv *invalidation, addr types.GlobalAddr, skip types.SiteID) []types.SiteID {
	cs, ok := s.copies[addr]
	if !ok {
		return nil
	}
	delete(s.copies, addr)
	out := inv.sites[:0]
	for id := range cs {
		if id != skip {
			out = append(out, id)
		}
	}
	inv.sites = out
	return out
}

// invalidation accumulates, per holder site, every address that site
// must drop, so one batched round-trip per holder replaces one
// round-trip per (holder, address) pair. Instances are pooled: writes
// are the memory manager's hottest coherence path, and the map plus its
// per-holder address slices would otherwise be reallocated per write.
// getInvalidation hands one out; sendInvalidates returns it (the batch
// payloads are serialized before Request blocks, so by the time the
// acks are in, nothing references the slices).
type invalidation struct {
	holders map[types.SiteID][]types.GlobalAddr
	sites   []types.SiteID       // takeCopysetLocked scratch
	spare   [][]types.GlobalAddr // recycled holder slices
}

var invPool = sync.Pool{New: func() any {
	return &invalidation{holders: make(map[types.SiteID][]types.GlobalAddr)}
}}

// getInvalidation returns an empty pooled accumulator.
func getInvalidation() *invalidation { return invPool.Get().(*invalidation) }

// putInvalidation recycles inv: holder slices go back to the spare list
// (capacity retained), the map empties.
func putInvalidation(inv *invalidation) {
	for id, a := range inv.holders {
		delete(inv.holders, id)
		inv.spare = append(inv.spare, a[:0])
	}
	invPool.Put(inv)
}

// add records that every site in sites holds a stale copy of addr.
func (inv *invalidation) add(addr types.GlobalAddr, sites []types.SiteID) {
	for _, id := range sites {
		a, ok := inv.holders[id]
		if !ok && len(inv.spare) > 0 {
			a = inv.spare[len(inv.spare)-1]
			inv.spare = inv.spare[:len(inv.spare)-1]
		}
		inv.holders[id] = append(a, addr)
	}
}

// empty reports whether no holder has anything to drop.
func (inv *invalidation) empty() bool { return len(inv.holders) == 0 }

// sendInvalidates drops replica holders' copies and waits for their
// acknowledgements (bounded), so a writer that has been acked can rely
// on no stale replica surviving anywhere. All addresses for one holder
// travel in a single MemInvalidateBatch under one shared deadline.
// Takes ownership of inv and returns it to the pool.
func (m *Manager) sendInvalidates(inv *invalidation) {
	defer putInvalidation(inv)
	if inv.empty() {
		return
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	var acked atomic.Uint64
	for id, addrs := range inv.holders {
		id, addrs := id, addrs
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			reply, err := m.bus.Request(id, types.MgrMemory, types.MgrMemory,
				&wire.MemInvalidateBatch{Addrs: addrs}, time.Until(deadline))
			if err != nil {
				return // bounded wait: a dead replica holder cannot ack
			}
			if _, ok := reply.Payload.(*wire.Barrier); ok {
				acked.Add(1)
				m.invalidateRTT.Observe(time.Since(start))
			}
		}()
	}
	wg.Wait()
	m.counts.invalidateAcks.Add(acked.Load())
}

// routeObjectLocked picks the first site to ask about addr. Caller holds
// s.mu.
func (m *Manager) routeObjectLocked(s *memShard, addr types.GlobalAddr) types.SiteID {
	if owner, ok := s.objOwner[addr]; ok {
		return owner
	}
	if owner, ok := s.remap[addr]; ok {
		return owner
	}
	if addr.Home != m.bus.Self() {
		return addr.Home
	}
	return types.InvalidSite
}

// Heat-based home migration (attraction memory v2): each owner keeps a
// decayed per-writer access count per resident object. Once a remote
// writer's share of the recent write window dominates everyone else
// combined, the object is pushed to that writer so its writes become
// local — observed access heat drives placement instead of static
// ownership.
const (
	// heatWindow bounds the per-object counter total; reaching it halves
	// every counter, so old traffic fades geometrically. The decay is
	// op-count based, not wall-clock, so seeded runs stay reproducible.
	heatWindow = 64
	// heatMigrateMin is the decayed count a remote writer needs before a
	// push is even considered; below it the signal is noise.
	heatMigrateMin = 8
	// heatDominance: a remote writer must exceed this multiple of all
	// other writers combined (including the owner) to attract the home.
	heatDominance = 2
)

// noteWriteLocked records one write to addr by writer in the shard-local
// heat table and returns the site the object should migrate to, or
// InvalidSite. Caller holds s.mu; the caller triggers the actual
// migration after releasing the lock and invalidating replicas.
func (m *Manager) noteWriteLocked(s *memShard, addr types.GlobalAddr, writer types.SiteID) types.SiteID {
	if !writer.Valid() {
		return types.InvalidSite
	}
	h := s.heat[addr]
	if h == nil {
		h = make(map[types.SiteID]uint32)
		s.heat[addr] = h
	}
	h[writer]++
	var total uint32
	for _, c := range h {
		total += c
	}
	if total >= heatWindow {
		total = 0
		for id, c := range h {
			c /= 2
			if c == 0 {
				delete(h, id)
				continue
			}
			h[id] = c
			total += c
		}
	}
	if writer == m.bus.Self() {
		return types.InvalidSite
	}
	c := h[writer]
	if c < heatMigrateMin || c <= heatDominance*(total-c) {
		return types.InvalidSite
	}
	return writer
}

// migrateHome pushes a locally owned object to its dominant writer (the
// decision made in noteWriteLocked), invalidating every outstanding
// replica — ownership moved, so the new owner starts a fresh copyset —
// and shipping the decayed heat table along so the new owner's
// migration judgement does not restart cold. Runs off the dispatcher.
func (m *Manager) migrateHome(addr types.GlobalAddr, dst types.SiteID) {
	self := m.bus.Self()
	if dst == self || !dst.Valid() {
		return
	}
	s := m.shardFor(addr)
	m.lockShard(s)
	o, ok := s.objects[addr]
	if !ok {
		s.mu.Unlock()
		return // already migrated or dropped; the heat signal was stale
	}
	obj := *o.Clone()
	delete(s.objects, addr)
	if addr.Home == self {
		s.objOwner[addr] = dst
	} else {
		// Transit hint, exactly like the Attract path: until the home
		// directory catches up, traffic arriving here is forwarded.
		s.remap[addr] = dst
	}
	inv := getInvalidation()
	inv.add(addr, m.takeCopysetLocked(s, inv, addr, dst))
	ht := &wire.MemHeatTransfer{Addr: addr}
	for id, c := range s.heat[addr] {
		ht.Sites = append(ht.Sites, id)
		ht.Heats = append(ht.Heats, c)
	}
	delete(s.heat, addr)
	s.mu.Unlock()

	m.counts.migrations.Inc()
	m.counts.homeMigrations.Inc()
	// Invalidate before the object lands at dst: a replica holder must
	// never observe the new owner's writes while still caching ours.
	m.sendInvalidates(inv)
	_ = m.bus.Send(dst, types.MgrMemory, types.MgrMemory,
		&wire.MemMigrate{Objects: []wire.MemObject{obj}})
	_ = m.bus.Send(dst, types.MgrMemory, types.MgrMemory, ht)
}

// Write stores data at offset within the object, extending it if needed.
// Non-resident objects are written in place at their owner. Like fetch,
// an exhausted redirect chain is retried after a pause rather than
// failed outright: ownership can be mid-flight between two sites (an
// Attract or heat push in progress), during which home and new owner
// briefly redirect to each other.
func (m *Manager) Write(addr types.GlobalAddr, offset int, data []byte) error {
	var lastErr error
	for round := 0; round < 5; round++ {
		done, err := m.writeOnce(addr, offset, data)
		if done {
			return err
		}
		lastErr = err
		m.counts.fetchRetries.Inc()
		if !m.pause(m.retryDelay(round)) {
			break // shutting down: stop chasing the directory
		}
	}
	return lastErr
}

// writeOnce attempts one write resolution. done=false means the failure
// is plausibly transient (in-flight migration) and worth retrying.
func (m *Manager) writeOnce(addr types.GlobalAddr, offset int, data []byte) (done bool, err error) {
	s := m.shardFor(addr)
	m.lockShard(s)
	if o, ok := s.objects[addr]; ok {
		if !writeAt(o, offset, data) {
			s.mu.Unlock()
			return true, fmt.Errorf("memory: write %v: offset %d + %d bytes out of bounds", addr, offset, len(data))
		}
		inv := getInvalidation()
		inv.add(addr, m.takeCopysetLocked(s, inv, addr, types.InvalidSite))
		// Local writes feed the heat table too: the owner's own traffic
		// is the counterweight a remote writer must dominate before the
		// object is pushed away.
		m.noteWriteLocked(s, addr, m.bus.Self())
		s.mu.Unlock()
		m.counts.localWrites.Inc()
		m.sendInvalidates(inv)
		return true, nil
	}
	// A stale local replica must not survive our own write-through.
	s.purgeReplicaLocked(addr)
	dst := m.routeObjectLocked(s, addr)
	s.mu.Unlock()
	m.counts.remoteWrites.Inc()
	if dst == types.InvalidSite {
		return false, &types.AddrError{Err: types.ErrNoSuchObject, Addr: addr}
	}

	for hop := 0; hop < maxRedirects; hop++ {
		reply, err := m.bus.Request(dst, types.MgrMemory, types.MgrMemory,
			&wire.MemWrite{Addr: addr, Offset: uint32(offset), Data: data}, 0)
		if err != nil {
			return false, err
		}
		ack, ok := reply.Payload.(*wire.MemWriteAck)
		if !ok {
			return true, fmt.Errorf("%w: mem write reply %T", types.ErrBadMessage, reply.Payload)
		}
		if ack.OK {
			return true, nil
		}
		if ack.Redirect == types.InvalidSite || ack.Redirect == dst {
			return false, &types.AddrError{Err: types.ErrNoSuchObject, Addr: addr}
		}
		dst = ack.Redirect
	}
	return false, fmt.Errorf("memory: write %v: redirect chain too long", addr)
}

// maxObjectSize bounds a memory object's backing array. An object must
// fit in one transport datagram to migrate or checkpoint, so growth
// beyond that is a corrupt or malicious request, not a real write.
const maxObjectSize = 16 << 20

// writeAt stores data at offset, growing the object if needed. It
// reports false for an out-of-bounds write (negative offset, or growth
// past maxObjectSize): offsets arrive off the wire and must not size
// allocations unchecked.
func writeAt(o *wire.MemObject, offset int, data []byte) bool {
	need := offset + len(data)
	if offset < 0 || offset > maxObjectSize || need > maxObjectSize {
		return false
	}
	if need > len(o.Data) {
		grown := make([]byte, need)
		copy(grown, o.Data)
		o.Data = grown
	}
	copy(o.Data[offset:], data)
	o.Version++
	return true
}

// ---------------------------------------------------------------------------
// Relocation, checkpointing, GC.

// EvacuateTo hands every resident frame and object to successor — the
// sign-off protocol's data phase (paper §3.4: "all microframes and the
// local part of the global memory have to be relocated to other sites
// before shutdown"). Peers are told the new owner so the directories
// stay coherent even though this site is about to vanish.
func (m *Manager) EvacuateTo(successor types.SiteID) error {
	var frames []*wire.Microframe
	var objects []wire.MemObject
	self := m.bus.Self()
	inv := getInvalidation()
	for i := range m.shards {
		s := &m.shards[i]
		m.lockShard(s)
		for id, f := range s.frames {
			frames = append(frames, f.Clone())
			// Leave a forwarding trail: parameters and reads already in
			// flight toward this site keep arriving while the daemon
			// drains its inbox, and the local retry timer dies with the
			// bus — they must be forwarded, not parked.
			if id.Home == self {
				s.frameOwner[id] = successor
			} else {
				s.remap[id] = successor
			}
		}
		for addr, o := range s.objects {
			objects = append(objects, *o.Clone())
			if addr.Home == self {
				s.objOwner[addr] = successor
			} else {
				s.remap[addr] = successor
			}
			// Replica holders keyed to this owner's copysets would never
			// hear about the successor's writes; flush them now, while
			// this site can still collect the acks.
			inv.add(addr, m.takeCopysetLocked(s, inv, addr, successor))
		}
		s.frames = make(map[types.FrameID]*wire.Microframe)
		s.objects = make(map[types.GlobalAddr]*wire.MemObject)
		s.heat = make(map[types.GlobalAddr]map[types.SiteID]uint32)
		s.mu.Unlock()
	}
	m.sendInvalidates(inv)

	// Tell everyone where the addresses homed or owned here now live,
	// before moving the data, so in-flight traffic re-routes.
	var updates []*wire.HomeUpdate
	for _, f := range frames {
		updates = append(updates, &wire.HomeUpdate{Addr: f.ID, Owner: successor})
	}
	for i := range objects {
		updates = append(updates, &wire.HomeUpdate{Addr: objects[i].Addr, Owner: successor})
	}
	for i := range m.shards {
		s := &m.shards[i]
		m.lockShard(s)
		for addr, owner := range s.objOwner {
			updates = append(updates, &wire.HomeUpdate{Addr: addr, Owner: owner})
		}
		for id, owner := range s.frameOwner {
			updates = append(updates, &wire.HomeUpdate{Addr: id, Owner: owner})
		}
		s.mu.Unlock()
	}
	for _, u := range updates {
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
	for i := range m.shards {
		s := &m.shards[i]
		m.lockShard(s)
		for _, f := range s.frames {
			if f.Thread.Program == prog {
				frames = append(frames, f.Clone())
			}
		}
		for _, o := range s.objects {
			if o.Program == prog {
				objects = append(objects, *o.Clone())
			}
		}
		s.mu.Unlock()
	}
	return frames, objects
}

// Restore adopts checkpointed state (crash recovery): frames re-enter
// the dataflow, objects become resident here. Ownership updates are
// broadcast — the restored addresses' homesite is typically the dead
// site, so a directed directory update would go nowhere.
func (m *Manager) Restore(frames []*wire.Microframe, objects []wire.MemObject) {
	for i := range objects {
		o := objects[i]
		s := m.shardFor(o.Addr)
		m.lockShard(s)
		s.objects[o.Addr] = &o
		s.purgeReplicaLocked(o.Addr)
		s.mu.Unlock()
	}
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
// deleted from memory", paper §4).
func (m *Manager) DropProgram(prog types.ProgramID) {
	for i := range m.shards {
		s := &m.shards[i]
		m.lockShard(s)
		for id, f := range s.frames {
			if f.Thread.Program == prog {
				delete(s.frames, id)
			}
		}
		for addr, o := range s.objects {
			if o.Program == prog {
				delete(s.objects, addr)
				delete(s.objOwner, addr)
				delete(s.copies, addr)
				delete(s.heat, addr)
			}
		}
		// Replicas are not program-tagged; drop them all (cheap, and a
		// terminated program's addresses never resolve again anyway).
		s.readCache = make(map[types.GlobalAddr]replica)
		s.mu.Unlock()
	}
	m.logMu.Lock()
	delete(m.paramLog, prog)
	for grantee, frames := range m.grantLog {
		kept := frames[:0]
		for _, f := range frames {
			if f.Thread.Program != prog {
				kept = append(kept, f)
			}
		}
		m.grantLog[grantee] = kept
	}
	m.logMu.Unlock()
}

// FrameCount returns the number of waiting frames (site statistics).
func (m *Manager) FrameCount() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		m.lockShard(s)
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// ObjectCount returns the number of resident objects.
func (m *Manager) ObjectCount() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		m.lockShard(s)
		n += len(s.objects)
		s.mu.Unlock()
	}
	return n
}

// TakeFrame removes and returns a specific waiting frame (used when a
// help reply hands a waiting frame away — rare, but the scheduler may
// relocate incomplete frames during load balancing).
func (m *Manager) TakeFrame(id types.FrameID) (*wire.Microframe, bool) {
	s := m.shardFor(id)
	m.lockShard(s)
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if ok {
		delete(s.frames, id)
	}
	return f, ok
}

// ---------------------------------------------------------------------------
// Message handling (msgbus dispatcher; must not block).

// HandleMessage implements msgbus.Handler.
func (m *Manager) HandleMessage(msg *wire.Message) {
	switch p := msg.Payload.(type) {
	case *wire.ApplyParam:
		m.handleApplyParam(p)
	case *wire.MemRead:
		m.handleMemRead(msg, p)
	case *wire.MemWrite:
		m.handleMemWrite(msg, p)
	case *wire.MemMigrate:
		m.handleMigrate(p)
	case *wire.MemInvalidateBatch:
		for _, addr := range p.Addrs {
			m.dropReplicas(addr)
		}
		_ = m.bus.Reply(msg, types.MgrMemory, &wire.Barrier{})
	case *wire.HomeUpdate:
		m.handleHomeUpdate(msg.Src, p)
	case *wire.FrameRelocate:
		for _, f := range p.Frames {
			m.AdoptFrame(f)
		}
	case *wire.MemReadReplica:
		m.handleMemReadReplica(msg, p)
	case *wire.MemHeatTransfer:
		m.handleHeatTransfer(p)
	}
}

// dropReplicas discards the local read replica of addr, if any, and
// poisons an in-flight fetch: the invalidation proves the owner already
// removed this site from the copyset, so bytes still in flight would
// install a replica no future write can reach.
func (m *Manager) dropReplicas(addr types.GlobalAddr) {
	s := m.shardFor(addr)
	m.lockShard(s)
	had := s.purgeReplicaLocked(addr)
	s.mu.Unlock()
	if had {
		m.counts.invalidates.Inc()
		m.counts.replicaInvals.Inc()
	}
}

// DropSiteReplicas severs every coherence tie to a departed site: local
// replicas it served are purged (a crashed owner may be restored from
// an older checkpoint, so bytes it served can no longer be trusted),
// in-flight fetches are poisoned, the site leaves every owner-side
// copyset (a write must not spend its invalidation deadline waiting on
// an ack that can never come), and its heat counters are forgotten so a
// dead site cannot attract an object. The daemon calls this for both
// crash declarations and graceful sign-offs.
func (m *Manager) DropSiteReplicas(site types.SiteID) {
	var dropped uint64
	for i := range m.shards {
		s := &m.shards[i]
		m.lockShard(s)
		for addr, rep := range s.readCache {
			if rep.from == site {
				delete(s.readCache, addr)
				dropped++
			}
		}
		for _, st := range s.fetching {
			st.poisoned = true
		}
		for addr, cs := range s.copies {
			if cs[site] {
				delete(cs, site)
				if len(cs) == 0 {
					delete(s.copies, addr)
				}
			}
		}
		for addr, h := range s.heat {
			if _, ok := h[site]; ok {
				delete(h, site)
				if len(h) == 0 {
					delete(s.heat, addr)
				}
			}
		}
		s.mu.Unlock()
	}
	if dropped > 0 {
		m.counts.replicaInvals.Add(dropped)
	}
}

// handleMemReadReplica serves the replica protocol's fault-in: the
// requester is registered in the copyset under the same lock that
// snapshots the data, so a write committing after this point takes a
// copyset that includes the requester — the replica being installed is
// invalidated, never silently stale.
func (m *Manager) handleMemReadReplica(msg *wire.Message, p *wire.MemReadReplica) {
	s := m.shardFor(p.Addr)
	m.lockShard(s)
	if o, ok := s.objects[p.Addr]; ok {
		if msg.Src.Valid() && msg.Src != m.bus.Self() {
			cs, ok := s.copies[p.Addr]
			if !ok {
				cs = make(map[types.SiteID]bool)
				s.copies[p.Addr] = cs
			}
			cs[msg.Src] = true
		}
		reply := &wire.MemReplicaData{Found: true, Version: o.Version,
			Data: append([]byte(nil), o.Data...)}
		s.mu.Unlock()
		m.counts.localReads.Inc()
		_ = m.bus.Reply(msg, types.MgrMemory, reply)
		return
	}
	dst := m.routeObjectLocked(s, p.Addr)
	s.mu.Unlock()

	if dst == types.InvalidSite || dst == m.bus.Self() {
		_ = m.bus.ReplyErr(msg, types.MgrMemory, wire.ErrCodeNoSuchObject, p.Addr.String())
		return
	}
	_ = m.bus.Reply(msg, types.MgrMemory, &wire.MemReplicaData{Found: true, Redirect: dst})
}

// handleHeatTransfer seeds the heat table for an object that just
// migrated here because of its write heat. Counts are capped at the
// decay window — they arrive off the wire and must not be trusted to
// be sane — and only applied while the object is resident, so a stale
// transfer cannot reheat an address that has already moved on.
func (m *Manager) handleHeatTransfer(p *wire.MemHeatTransfer) {
	n := len(p.Sites)
	if len(p.Heats) < n {
		n = len(p.Heats)
	}
	if n == 0 {
		return
	}
	s := m.shardFor(p.Addr)
	m.lockShard(s)
	defer s.mu.Unlock()
	if _, resident := s.objects[p.Addr]; !resident {
		return
	}
	h := s.heat[p.Addr]
	if h == nil {
		h = make(map[types.SiteID]uint32)
		s.heat[p.Addr] = h
	}
	for i := 0; i < n; i++ {
		id, c := p.Sites[i], p.Heats[i]
		if !id.Valid() || c == 0 {
			continue
		}
		if c > heatWindow {
			c = heatWindow
		}
		if h[id] += c; h[id] > heatWindow {
			h[id] = heatWindow
		}
	}
}

func (m *Manager) handleApplyParam(p *wire.ApplyParam) {
	s := m.shardFor(p.Dst.Addr)
	m.lockShard(s)
	if f, ok := s.frames[p.Dst.Addr]; ok {
		// Errors here are dataflow programming errors (double-filled
		// slot); they are counted but cannot be reported to the remote
		// sender meaningfully.
		_ = m.applyLocked(s, f, int(p.Dst.Slot), p.Data)
		s.mu.Unlock()
		return
	}
	if s.consumed[p.Dst.Addr] {
		s.mu.Unlock()
		return
	}
	dst := m.routeFrameLocked(s, p.Dst.Addr)
	s.mu.Unlock()

	if dst != types.InvalidSite && dst != m.bus.Self() {
		if err := m.bus.Send(dst, types.MgrMemory, types.MgrMemory, p); err == nil {
			return
		}
		// The forward target just left or crashed; fall through to the
		// retry path — routing will heal once relocation broadcasts or
		// crash recovery update the directories.
	}
	// Frame not here and not (reachably) known elsewhere: likely
	// in-flight. Retry shortly rather than dropping the parameter, but
	// give up after ~5s so dead programs cannot loop forever.
	m.lockShard(s)
	s.pendingRetries[p.Dst]++
	tries := s.pendingRetries[p.Dst]
	if tries > 100 {
		delete(s.pendingRetries, p.Dst)
	}
	s.mu.Unlock()
	if tries > 100 {
		return
	}
	dup := &wire.ApplyParam{Dst: p.Dst, Data: p.Data}
	time.AfterFunc(50*time.Millisecond, func() {
		_ = m.bus.Send(m.bus.Self(), types.MgrMemory, types.MgrMemory, dup)
	})
}

func (m *Manager) handleMemRead(msg *wire.Message, p *wire.MemRead) {
	s := m.shardFor(p.Addr)
	m.lockShard(s)
	if o, ok := s.objects[p.Addr]; ok {
		reply := &wire.MemReadReply{Found: true, Object: *o.Clone()}
		inv := getInvalidation()
		if p.Migrate {
			delete(s.objects, p.Addr)
			if p.Addr.Home == m.bus.Self() {
				s.objOwner[p.Addr] = msg.Src
			} else {
				// Transit hint: until the homesite directory catches
				// up, requests that still arrive here are forwarded to
				// the new owner instead of bouncing via the home.
				s.remap[p.Addr] = msg.Src
			}
			// Ownership moves: replicas keyed to this owner's copyset
			// are dropped (the new owner starts a fresh copyset), and
			// the heat table goes with the ownership role.
			inv.add(p.Addr, m.takeCopysetLocked(s, inv, p.Addr, msg.Src))
			delete(s.heat, p.Addr)
			s.mu.Unlock()
			m.counts.migrations.Inc()
		} else {
			if msg.Src.Valid() && msg.Src != m.bus.Self() {
				cs, ok := s.copies[p.Addr]
				if !ok {
					cs = make(map[types.SiteID]bool)
					s.copies[p.Addr] = cs
				}
				cs[msg.Src] = true
			}
			s.mu.Unlock()
			m.counts.localReads.Inc()
		}
		m.sendInvalidates(inv)
		_ = m.bus.Reply(msg, types.MgrMemory, reply)
		return
	}
	dst := m.routeObjectLocked(s, p.Addr)
	s.mu.Unlock()

	if dst == types.InvalidSite || dst == m.bus.Self() {
		_ = m.bus.ReplyErr(msg, types.MgrMemory, wire.ErrCodeNoSuchObject, p.Addr.String())
		return
	}
	_ = m.bus.Reply(msg, types.MgrMemory, &wire.MemReadReply{Found: true, Redirect: dst})
}

func (m *Manager) handleMemWrite(msg *wire.Message, p *wire.MemWrite) {
	s := m.shardFor(p.Addr)
	m.lockShard(s)
	if o, ok := s.objects[p.Addr]; ok {
		if !writeAt(o, int(p.Offset), p.Data) {
			s.mu.Unlock()
			_ = m.bus.ReplyErr(msg, types.MgrMemory, wire.ErrCodeGeneric, "memory: write out of bounds")
			return
		}
		inv := getInvalidation()
		// The writer itself is not skipped: it dropped its own replica
		// before writing through, but a concurrent reader on its site may
		// have re-installed one in the meantime — that copy is as stale
		// as anyone else's.
		inv.add(p.Addr, m.takeCopysetLocked(s, inv, p.Addr, types.InvalidSite))
		migrateTo := m.noteWriteLocked(s, p.Addr, msg.Src)
		s.mu.Unlock()
		m.counts.localWrites.Inc()
		if inv.empty() && migrateTo == types.InvalidSite {
			putInvalidation(inv)
			_ = m.bus.Reply(msg, types.MgrMemory, &wire.MemWriteAck{OK: true})
			return
		}
		// Collect invalidation acks off the dispatcher, then ack the
		// writer: once the writer proceeds, no stale replica survives.
		// A heat-triggered push runs after the ack — placement is an
		// optimisation, not part of the write's consistency contract.
		go func() {
			m.sendInvalidates(inv)
			_ = m.bus.Reply(msg, types.MgrMemory, &wire.MemWriteAck{OK: true})
			if migrateTo != types.InvalidSite {
				m.migrateHome(p.Addr, migrateTo)
			}
		}()
		return
	}
	dst := m.routeObjectLocked(s, p.Addr)
	s.mu.Unlock()

	if dst == types.InvalidSite || dst == m.bus.Self() {
		_ = m.bus.ReplyErr(msg, types.MgrMemory, wire.ErrCodeNoSuchObject, p.Addr.String())
		return
	}
	_ = m.bus.Reply(msg, types.MgrMemory, &wire.MemWriteAck{OK: false, Redirect: dst})
}

func (m *Manager) handleMigrate(p *wire.MemMigrate) {
	self := m.bus.Self()
	var updates []*wire.HomeUpdate
	for i := range p.Objects {
		o := p.Objects[i]
		s := m.shardFor(o.Addr)
		m.lockShard(s)
		s.objects[o.Addr] = &o
		s.purgeReplicaLocked(o.Addr)
		if o.Addr.Home == self {
			delete(s.objOwner, o.Addr) // we own it again
		} else {
			updates = append(updates, &wire.HomeUpdate{Addr: o.Addr, Owner: self})
		}
		s.mu.Unlock()
	}
	m.counts.migrations.Add(uint64(len(p.Objects)))

	for _, u := range updates {
		if !u.Addr.Home.Valid() {
			continue // corrupt migration payload: no directory to update
		}
		_ = m.bus.Send(u.Addr.Home, types.MgrMemory, types.MgrMemory, u)
	}
}

func (m *Manager) handleHomeUpdate(from types.SiteID, p *wire.HomeUpdate) {
	s := m.shardFor(p.Addr)
	m.lockShard(s)
	defer s.mu.Unlock()
	self := m.bus.Self()
	if p.Addr.Home == self {
		// Directory update for an address we created.
		if p.Owner == self {
			delete(s.objOwner, p.Addr)
			delete(s.frameOwner, p.Addr)
			return
		}
		if s.consumed[p.Addr] {
			return
		}
		// The address may name a frame or an object; record in both
		// directories (lookups check residency first, so a stale entry
		// in the wrong directory is harmless).
		if _, resident := s.objects[p.Addr]; !resident {
			if _, fresident := s.frames[p.Addr]; !fresident {
				s.objOwner[p.Addr] = p.Owner
				s.frameOwner[p.Addr] = p.Owner
			}
		}
		return
	}
	// Broadcast remap from an evacuating site.
	if _, resident := s.objects[p.Addr]; resident {
		return
	}
	if _, resident := s.frames[p.Addr]; resident {
		return
	}
	if p.Owner == self {
		return
	}
	s.remap[p.Addr] = p.Owner
}
