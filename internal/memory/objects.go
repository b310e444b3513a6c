package memory

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/wire"
)

// maxRedirects bounds a read/write resolution chain. Ownership can move
// while we chase it, but never in a cycle longer than the cluster.
const maxRedirects = 16

// objectShard holds the object store's state for one slice of the
// address space, under one mutex: an object's transitions (resident →
// remote, replicated → invalidated, …) lock exactly one shard.
type objectShard struct {
	mu sync.Mutex

	// objects owned (resident) at this site, by address. guarded by mu
	objects map[types.GlobalAddr]*wire.MemObject
	// objOwner is the homesite directory for objects homed here:
	// address -> site currently owning it. Entries exist only while the
	// object lives elsewhere. guarded by mu
	objOwner map[types.GlobalAddr]types.SiteID
	// remap overrides the homesite for objects whose home left the
	// cluster, learned from broadcast HomeUpdates during sign-off, and
	// holds transit hints for objects that moved on from here. guarded by mu
	remap map[types.GlobalAddr]types.SiteID

	// readCache holds validated read replicas of remote objects
	// (COMA read replication, paper §4: objects "migrate or even be
	// copied to other sites"). Coherence is write-invalidate: the owner
	// tracks a copyset per object and sends invalidations when the
	// object changes or migrates. guarded by mu
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
}

// replica is one cached read copy of a remote object. It remembers the
// version it mirrors, the site that served it, so replicas sourced from
// a departed site can be purged, and the object's program, so a
// program's end drops only its own replicas.
type replica struct {
	data    []byte
	version uint64
	from    types.SiteID
	prog    types.ProgramID
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
func (s *objectShard) purgeReplicaLocked(addr types.GlobalAddr) bool {
	if st, ok := s.fetching[addr]; ok {
		st.poisoned = true
	}
	_, had := s.readCache[addr]
	if had {
		delete(s.readCache, addr)
	}
	return had
}

// objectStore keeps the objects owned here, the homesite directory of
// the objects allocated here, and this site's read replicas.
type objectStore struct {
	*core
	shards [shardCount]objectShard

	// invalidateRTT is the invalidation round-trip histogram; nil (inert)
	// unless SetMetrics installed a registry. Written once at daemon
	// construction.
	invalidateRTT *metrics.Histogram
}

func (ob *objectStore) init(c *core) {
	ob.core = c
	for i := range ob.shards {
		s := &ob.shards[i]
		s.mu.Lock()
		s.objects = make(map[types.GlobalAddr]*wire.MemObject)
		s.objOwner = make(map[types.GlobalAddr]types.SiteID)
		s.remap = make(map[types.GlobalAddr]types.SiteID)
		s.readCache = make(map[types.GlobalAddr]replica)
		s.copies = make(map[types.GlobalAddr]map[types.SiteID]bool)
		s.fetching = make(map[types.GlobalAddr]*fetchState)
		s.heat = make(map[types.GlobalAddr]map[types.SiteID]uint32)
		s.mu.Unlock()
	}
}

func (ob *objectStore) shardFor(a types.GlobalAddr) *objectShard { return &ob.shards[shardIndex(a)] }

// ---------------------------------------------------------------------------
// Local API: called by the execution layer (may block on remote traffic).

// Alloc creates a memory object of the given contents for program prog,
// homed and initially owned at this site, and returns its global address
// — "it will receive a global memory address ... and is thus accessible
// from all sites in the cluster" (paper §4).
func (ob *objectStore) Alloc(prog types.ProgramID, data []byte) types.GlobalAddr {
	addr := ob.newAddr()
	s := ob.shardFor(addr)
	ob.lock(&s.mu)
	s.objects[addr] = &wire.MemObject{
		Addr:    addr,
		Program: prog,
		Data:    append([]byte(nil), data...),
	}
	s.mu.Unlock()
	ob.counts.allocs.Inc()
	return addr
}

// Read returns a copy of the object's current contents: the resident
// object, else a versioned read replica, faulted in from the owner on a
// miss ("when they are needed, they migrate to the corresponding site" —
// reads take a copy, write intent migrates). The owner registers this
// site in the object's copyset before answering, so the installed
// replica is covered by write-invalidation from the moment it exists.
func (ob *objectStore) Read(addr types.GlobalAddr) ([]byte, error) {
	s := ob.shardFor(addr)
	for {
		ob.lock(&s.mu)
		if obj, ok := s.objects[addr]; ok {
			data := append([]byte(nil), obj.Data...)
			s.mu.Unlock()
			ob.counts.localReads.Inc()
			return data, nil
		}
		if rep, ok := s.readCache[addr]; ok {
			out := append([]byte(nil), rep.data...)
			s.mu.Unlock()
			ob.counts.replicaHits.Inc()
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
		ob.counts.remoteReads.Inc()

		var rep replica
		err := ob.resolve(addr, &wire.MemReadReplica{Addr: addr}, ob.firstHop,
			func(p wire.Payload, from types.SiteID) (bool, types.SiteID, bool) {
				rd, ok := p.(*wire.MemReplicaData)
				if !ok {
					return false, types.InvalidSite, false
				}
				served := rd.Found && rd.Redirect == types.InvalidSite
				if served {
					rep = replica{data: rd.Data, version: rd.Version, from: from, prog: rd.Program}
				}
				return served, rd.Redirect, true
			})
		ob.lock(&s.mu)
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

// Attract migrates the object to this site (ownership transfer) and
// returns a copy of its contents — COMA attraction on write intent.
func (ob *objectStore) Attract(addr types.GlobalAddr) ([]byte, error) {
	s := ob.shardFor(addr)
	ob.lock(&s.mu)
	if obj, ok := s.objects[addr]; ok {
		data := append([]byte(nil), obj.Data...)
		s.mu.Unlock()
		return data, nil
	}
	s.mu.Unlock()

	var obj *wire.MemObject
	err := ob.resolve(addr, &wire.MemRead{Addr: addr}, ob.firstHop,
		func(p wire.Payload, _ types.SiteID) (bool, types.SiteID, bool) {
			rr, ok := p.(*wire.MemReadReply)
			if !ok {
				return false, types.InvalidSite, false
			}
			served := rr.Found && rr.Redirect == types.InvalidSite
			if served {
				obj = &rr.Object
			}
			return served, rr.Redirect, true
		})
	if err != nil {
		return nil, err
	}

	ob.lock(&s.mu)
	s.objects[addr] = obj
	// The resident object supersedes any replica we held; a stale one
	// left here (or installed by a racing fetch) would resurface once
	// the object migrates away again.
	s.purgeReplicaLocked(addr)
	// Snapshot while still holding the lock: the moment the object is
	// installed, a concurrent local Write may mutate its backing array.
	data := append([]byte(nil), obj.Data...)
	s.mu.Unlock()
	ob.counts.migrations.Inc()
	self := ob.bus.Self()

	// Keep the homesite directory current.
	if addr.Home != self {
		_ = ob.bus.Send(addr.Home, types.MgrMemory, types.MgrMemory,
			&wire.HomeUpdate{Addr: addr, Owner: self})
	}
	return data, nil
}

// Write stores data at offset within the object, extending it if needed.
// A resident object is written here; any other is written in place at
// its owner, and every attempt to reach the owner counts one remote
// write.
func (ob *objectStore) Write(addr types.GlobalAddr, offset int, data []byte) error {
	return ob.resolve(addr, &wire.MemWrite{Addr: addr, Offset: uint32(offset), Data: data},
		func(addr types.GlobalAddr) (types.SiteID, bool, error) {
			s := ob.shardFor(addr)
			ob.lock(&s.mu)
			if obj, ok := s.objects[addr]; ok {
				inv, _, err := ob.writeLocked(s, obj, offset, data, ob.bus.Self())
				s.mu.Unlock()
				if err == nil {
					ob.counts.localWrites.Inc()
					ob.sendInvalidates(inv)
				}
				return types.InvalidSite, true, err
			}
			// A stale local replica must not survive our own write-through.
			s.purgeReplicaLocked(addr)
			dst := ob.route(s.objOwner, s.remap, addr)
			s.mu.Unlock()
			ob.counts.remoteWrites.Inc()
			return dst, false, nil
		},
		func(p wire.Payload, _ types.SiteID) (bool, types.SiteID, bool) {
			ack, ok := p.(*wire.MemWriteAck)
			if !ok {
				return false, types.InvalidSite, false
			}
			return ack.OK, ack.Redirect, true
		})
}

// firstHop starts a Read or Attract chase at the owner this site knows
// of. With none known the object does not exist, and the operation ends.
func (ob *objectStore) firstHop(addr types.GlobalAddr) (types.SiteID, bool, error) {
	s := ob.shardFor(addr)
	ob.lock(&s.mu)
	dst := ob.route(s.objOwner, s.remap, addr)
	s.mu.Unlock()
	if dst == types.InvalidSite {
		return dst, true, &types.AddrError{Err: types.ErrNoSuchObject, Addr: addr}
	}
	return dst, false, nil
}

// resolve runs one operation on addr at the object's owner: the one
// redirect chase that Read, Attract and Write share. Each round begins
// with start, which either finishes the operation (done) or names the
// first site to ask. The chase then sends req and follows redirects for
// at most maxRedirects hops, until answer reports the request served.
// A round that fails the way a moving owner explains — a lost request, a
// site that no longer knows the object, a chain too long — is retried
// after a paced pause, up to five rounds: ownership can be mid-flight
// between two sites (an Attract or heat push in progress), during which
// home and new owner briefly redirect to each other. A reply of the
// wrong type ends the operation.
func (ob *objectStore) resolve(addr types.GlobalAddr, req wire.Payload,
	start func(types.GlobalAddr) (dst types.SiteID, done bool, err error),
	answer func(reply wire.Payload, from types.SiteID) (served bool, redirect types.SiteID, ok bool)) error {
	return ob.retry(5, func() (bool, error) {
		dst, done, err := start(addr)
		if done {
			return true, err
		}
		for hop := 0; dst != types.InvalidSite; hop++ {
			if hop == maxRedirects {
				return false, fmt.Errorf("memory: %v %v: redirect chain too long", req.Kind(), addr)
			}
			reply, err := ob.bus.Request(dst, types.MgrMemory, types.MgrMemory, req, 0)
			if err != nil {
				return false, err
			}
			served, redirect, ok := answer(reply.Payload, dst)
			switch {
			case !ok:
				return true, fmt.Errorf("%w: %v reply %T", types.ErrBadMessage, req.Kind(), reply.Payload)
			case served:
				return true, nil
			case redirect == dst:
				redirect = types.InvalidSite // a site naming itself has nothing to serve
			}
			dst = redirect
		}
		return false, &types.AddrError{Err: types.ErrNoSuchObject, Addr: addr}
	})
}

// maxObjectSize bounds a memory object's backing array. An object must
// fit in one transport datagram to migrate or checkpoint, so growth
// beyond that is a corrupt or malicious request, not a real write.
const maxObjectSize = 16 << 20

// writeAt stores data at offset, growing the object if needed. It
// reports false for an out-of-bounds write (negative offset, or growth
// past maxObjectSize): offsets arrive off the wire and must not size
// allocations unchecked.
func writeAt(obj *wire.MemObject, offset int, data []byte) bool {
	need := offset + len(data)
	if offset < 0 || offset > maxObjectSize || need > maxObjectSize {
		return false
	}
	if need > len(obj.Data) {
		grown := make([]byte, need)
		copy(grown, obj.Data)
		obj.Data = grown
	}
	copy(obj.Data[offset:], data)
	obj.Version++
	return true
}

// writeLocked applies a write by writer to the resident object obj. It
// returns the copyset to invalidate before the write is acknowledged,
// and the site the object's write heat says it should move to. The
// writer's own site is not spared: it dropped its replica before writing
// through, but a concurrent reader there may have re-installed one, and
// that copy is as stale as anyone else's. The owner's own writes feed the
// heat table too: they are the counterweight a remote writer must
// dominate before the object is pushed away. Caller holds s.mu.
func (ob *objectStore) writeLocked(s *objectShard, obj *wire.MemObject, offset int, data []byte, writer types.SiteID) (*invalidation, types.SiteID, error) {
	if !writeAt(obj, offset, data) {
		return nil, types.InvalidSite, fmt.Errorf("memory: write %v: offset %d + %d bytes out of bounds", obj.Addr, offset, len(data))
	}
	inv := getInvalidation()
	inv.add(obj.Addr, ob.takeCopysetLocked(s, inv, obj.Addr, types.InvalidSite))
	return inv, ob.noteWriteLocked(s, obj.Addr, writer), nil
}

// handOffLocked gives up ownership of addr to site to: the object leaves
// this site, the directory — or, for an address homed elsewhere, a
// transit hint — forwards later requests to to until the homesite
// catches up, the copyset joins inv (replicas keyed to this owner are
// dropped; to starts a fresh copyset) and the heat table goes with the
// ownership role. Caller holds s.mu.
func (ob *objectStore) handOffLocked(s *objectShard, addr types.GlobalAddr, to types.SiteID, inv *invalidation) {
	delete(s.objects, addr)
	if addr.Home == ob.bus.Self() {
		s.objOwner[addr] = to
	} else {
		s.remap[addr] = to
	}
	inv.add(addr, ob.takeCopysetLocked(s, inv, addr, to))
	delete(s.heat, addr)
}

// takeCopysetLocked removes and returns the copyset of addr, excluding
// skip (the site whose action triggered the invalidation — it holds the
// fresh version). The result lives in inv's reused scratch slice and is
// valid only until the next take; callers hand it straight to inv.add.
// Caller holds s.mu.
func (ob *objectStore) takeCopysetLocked(s *objectShard, inv *invalidation, addr types.GlobalAddr, skip types.SiteID) []types.SiteID {
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
func (ob *objectStore) sendInvalidates(inv *invalidation) {
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
			reply, err := ob.bus.Request(id, types.MgrMemory, types.MgrMemory,
				&wire.MemInvalidateBatch{Addrs: addrs}, time.Until(deadline))
			if err != nil {
				return // bounded wait: a dead replica holder cannot ack
			}
			if _, ok := reply.Payload.(*wire.Barrier); ok {
				acked.Add(1)
				ob.invalidateRTT.Observe(time.Since(start))
			}
		}()
	}
	wg.Wait()
	ob.counts.invalidateAcks.Add(acked.Load())
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
func (ob *objectStore) noteWriteLocked(s *objectShard, addr types.GlobalAddr, writer types.SiteID) types.SiteID {
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
	if writer == ob.bus.Self() {
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
func (ob *objectStore) migrateHome(addr types.GlobalAddr, dst types.SiteID) {
	if dst == ob.bus.Self() || !dst.Valid() {
		return
	}
	s := ob.shardFor(addr)
	ob.lock(&s.mu)
	obj, ok := s.objects[addr]
	if !ok {
		s.mu.Unlock()
		return // already migrated or dropped; the heat signal was stale
	}
	moved := *obj.Clone()
	ht := &wire.MemHeatTransfer{Addr: addr}
	for id, c := range s.heat[addr] {
		ht.Sites = append(ht.Sites, id)
		ht.Heats = append(ht.Heats, c)
	}
	inv := getInvalidation()
	ob.handOffLocked(s, addr, dst, inv)
	s.mu.Unlock()

	ob.counts.migrations.Inc()
	ob.counts.homeMigrations.Inc()
	// Invalidate before the object lands at dst: a replica holder must
	// never observe the new owner's writes while still caching ours.
	ob.sendInvalidates(inv)
	_ = ob.bus.Send(dst, types.MgrMemory, types.MgrMemory,
		&wire.MemMigrate{Objects: []wire.MemObject{moved}})
	_ = ob.bus.Send(dst, types.MgrMemory, types.MgrMemory, ht)
}

// ---------------------------------------------------------------------------
// Relocation, checkpointing, GC.

// ObjectCount returns the number of resident objects.
func (ob *objectStore) ObjectCount() int {
	n := 0
	for i := range ob.shards {
		s := &ob.shards[i]
		ob.lock(&s.mu)
		n += len(s.objects)
		s.mu.Unlock()
	}
	return n
}

// install makes objects resident here (a migration or a checkpoint
// restore). A resident object supersedes any replica of it, and an
// object homed here needs no directory entry while it is back.
func (ob *objectStore) install(objects []wire.MemObject) {
	self := ob.bus.Self()
	for i := range objects {
		obj := objects[i]
		s := ob.shardFor(obj.Addr)
		ob.lock(&s.mu)
		s.objects[obj.Addr] = &obj
		s.purgeReplicaLocked(obj.Addr)
		if obj.Addr.Home == self {
			delete(s.objOwner, obj.Addr)
		}
		s.mu.Unlock()
	}
}

// evacuate empties the store for a sign-off to successor. It returns
// clones of the resident objects and the directory updates to
// broadcast, and leaves a forwarding trail like every hand-off. Replica
// holders keyed to this owner's copysets would never hear about the
// successor's writes, so they are flushed now, while this site can
// still collect the acks.
func (ob *objectStore) evacuate(successor types.SiteID) (objects []wire.MemObject, updates []*wire.HomeUpdate) {
	inv := getInvalidation()
	for i := range ob.shards {
		s := &ob.shards[i]
		ob.lock(&s.mu)
		for addr, obj := range s.objects {
			objects = append(objects, *obj.Clone())
			updates = append(updates, &wire.HomeUpdate{Addr: addr, Owner: successor})
			ob.handOffLocked(s, addr, successor, inv)
		}
		for addr, owner := range s.objOwner {
			updates = append(updates, &wire.HomeUpdate{Addr: addr, Owner: owner})
		}
		s.mu.Unlock()
	}
	ob.sendInvalidates(inv)
	return objects, updates
}

// snapshot returns deep copies of the resident objects of one program.
func (ob *objectStore) snapshot(prog types.ProgramID) (objects []wire.MemObject) {
	for i := range ob.shards {
		s := &ob.shards[i]
		ob.lock(&s.mu)
		for _, obj := range s.objects {
			if obj.Program == prog {
				objects = append(objects, *obj.Clone())
			}
		}
		s.mu.Unlock()
	}
	return objects
}

// dropProgram discards a terminated program's resident objects, with
// their directory, copyset and heat entries, and this site's replicas of
// its objects. Other programs' replicas stay.
func (ob *objectStore) dropProgram(prog types.ProgramID) {
	for i := range ob.shards {
		s := &ob.shards[i]
		ob.lock(&s.mu)
		for addr, obj := range s.objects {
			if obj.Program == prog {
				delete(s.objects, addr)
				delete(s.objOwner, addr)
				delete(s.copies, addr)
				delete(s.heat, addr)
			}
		}
		for addr, rep := range s.readCache {
			if rep.prog == prog {
				delete(s.readCache, addr)
			}
		}
		s.mu.Unlock()
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
func (ob *objectStore) DropSiteReplicas(site types.SiteID) {
	var dropped uint64
	for i := range ob.shards {
		s := &ob.shards[i]
		ob.lock(&s.mu)
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
		ob.counts.replicaInvals.Add(dropped)
	}
}

// ---------------------------------------------------------------------------
// Message handling (msgbus dispatcher; must not block).

// HandleMessage serves the object store's share of MgrMemory traffic.
func (ob *objectStore) HandleMessage(msg *wire.Message) {
	switch p := msg.Payload.(type) {
	case *wire.MemReadReplica:
		ob.handleReadReplica(msg, p)
	case *wire.MemRead:
		ob.handleRead(msg, p)
	case *wire.MemWrite:
		ob.handleWrite(msg, p)
	case *wire.MemMigrate:
		ob.handleMigrate(p)
	case *wire.MemHeatTransfer:
		ob.handleHeatTransfer(p)
	case *wire.MemInvalidateBatch:
		for _, addr := range p.Addrs {
			ob.dropReplicas(addr)
		}
		_ = ob.bus.Reply(msg, types.MgrMemory, &wire.Barrier{})
	case *wire.HomeUpdate:
		s := ob.shardFor(p.Addr)
		ob.lock(&s.mu)
		_, resident := s.objects[p.Addr]
		ob.applyHomeUpdate(s.objOwner, s.remap, p, resident)
		s.mu.Unlock()
	}
}

// owned is how every owner-side request handler starts. When the object
// is resident, it returns addr's shard, locked, and the object. When it
// is not, owned answers msg itself — with notHere(owner) toward the
// owner this site knows of, or NoSuchObject when it knows none — and
// returns a nil object with no lock held.
func (ob *objectStore) owned(msg *wire.Message, addr types.GlobalAddr, notHere func(owner types.SiteID) wire.Payload) (*objectShard, *wire.MemObject) {
	s := ob.shardFor(addr)
	ob.lock(&s.mu)
	if obj, ok := s.objects[addr]; ok {
		return s, obj
	}
	dst := ob.route(s.objOwner, s.remap, addr)
	s.mu.Unlock()
	if dst == types.InvalidSite || dst == ob.bus.Self() {
		_ = ob.bus.ReplyErr(msg, types.MgrMemory, wire.ErrCodeNoSuchObject, addr.String())
	} else {
		_ = ob.bus.Reply(msg, types.MgrMemory, notHere(dst))
	}
	return nil, nil
}

// handleReadReplica serves the replica protocol's fault-in: the
// requester is registered in the copyset under the same lock that
// snapshots the data, so a write committing after this point takes a
// copyset that includes the requester — the replica being installed is
// invalidated, never silently stale.
func (ob *objectStore) handleReadReplica(msg *wire.Message, p *wire.MemReadReplica) {
	s, obj := ob.owned(msg, p.Addr, func(owner types.SiteID) wire.Payload {
		return &wire.MemReplicaData{Found: true, Redirect: owner}
	})
	if obj == nil {
		return
	}
	if msg.Src.Valid() && msg.Src != ob.bus.Self() {
		cs, ok := s.copies[p.Addr]
		if !ok {
			cs = make(map[types.SiteID]bool)
			s.copies[p.Addr] = cs
		}
		cs[msg.Src] = true
	}
	reply := &wire.MemReplicaData{Found: true, Version: obj.Version, Program: obj.Program,
		Data: append([]byte(nil), obj.Data...)}
	s.mu.Unlock()
	ob.counts.localReads.Inc()
	_ = ob.bus.Reply(msg, types.MgrMemory, reply)
}

// handleRead serves Attract: the object migrates to the requester.
func (ob *objectStore) handleRead(msg *wire.Message, p *wire.MemRead) {
	s, obj := ob.owned(msg, p.Addr, func(owner types.SiteID) wire.Payload {
		return &wire.MemReadReply{Found: true, Redirect: owner}
	})
	if obj == nil {
		return
	}
	reply := &wire.MemReadReply{Found: true, Object: *obj.Clone()}
	inv := getInvalidation()
	ob.handOffLocked(s, p.Addr, msg.Src, inv)
	s.mu.Unlock()
	ob.counts.migrations.Inc()
	ob.sendInvalidates(inv)
	_ = ob.bus.Reply(msg, types.MgrMemory, reply)
}

// handleWrite applies a remote writer's write at the owner.
func (ob *objectStore) handleWrite(msg *wire.Message, p *wire.MemWrite) {
	s, obj := ob.owned(msg, p.Addr, func(owner types.SiteID) wire.Payload {
		return &wire.MemWriteAck{Redirect: owner}
	})
	if obj == nil {
		return
	}
	inv, migrateTo, err := ob.writeLocked(s, obj, int(p.Offset), p.Data, msg.Src)
	s.mu.Unlock()
	if err != nil {
		_ = ob.bus.ReplyErr(msg, types.MgrMemory, wire.ErrCodeGeneric, "memory: write out of bounds")
		return
	}
	ob.counts.localWrites.Inc()
	if inv.empty() && migrateTo == types.InvalidSite {
		putInvalidation(inv)
		_ = ob.bus.Reply(msg, types.MgrMemory, &wire.MemWriteAck{OK: true})
		return
	}
	// Collect invalidation acks off the dispatcher, then ack the
	// writer: once the writer proceeds, no stale replica survives.
	// A heat-triggered push runs after the ack — placement is an
	// optimisation, not part of the write's consistency contract.
	go func() {
		ob.sendInvalidates(inv)
		_ = ob.bus.Reply(msg, types.MgrMemory, &wire.MemWriteAck{OK: true})
		if migrateTo != types.InvalidSite {
			ob.migrateHome(p.Addr, migrateTo)
		}
	}()
}

// handleMigrate adopts objects pushed here and tells their homesites.
func (ob *objectStore) handleMigrate(p *wire.MemMigrate) {
	ob.install(p.Objects)
	ob.counts.migrations.Add(uint64(len(p.Objects)))
	self := ob.bus.Self()
	for i := range p.Objects {
		addr := p.Objects[i].Addr
		if addr.Home == self || !addr.Home.Valid() {
			continue // ours again, or a corrupt payload with no directory to update
		}
		_ = ob.bus.Send(addr.Home, types.MgrMemory, types.MgrMemory,
			&wire.HomeUpdate{Addr: addr, Owner: self})
	}
}

// handleHeatTransfer seeds the heat table for an object that just
// migrated here because of its write heat. Counts are capped at the
// decay window — they arrive off the wire and must not be trusted to
// be sane — and only applied while the object is resident, so a stale
// transfer cannot reheat an address that has already moved on.
func (ob *objectStore) handleHeatTransfer(p *wire.MemHeatTransfer) {
	n := len(p.Sites)
	if len(p.Heats) < n {
		n = len(p.Heats)
	}
	if n == 0 {
		return
	}
	s := ob.shardFor(p.Addr)
	ob.lock(&s.mu)
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

// dropReplicas discards the local read replica of addr, if any, and
// poisons an in-flight fetch: the invalidation proves the owner already
// removed this site from the copyset, so bytes still in flight would
// install a replica no future write can reach.
func (ob *objectStore) dropReplicas(addr types.GlobalAddr) {
	s := ob.shardFor(addr)
	ob.lock(&s.mu)
	had := s.purgeReplicaLocked(addr)
	s.mu.Unlock()
	if had {
		ob.counts.invalidates.Inc()
		ob.counts.replicaInvals.Inc()
	}
}
