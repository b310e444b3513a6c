package memory

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wire"
)

// frameShard holds the frame store's state for one slice of the address
// space, under one mutex: a frame's transitions (waiting → fired,
// resident → relocated) lock exactly one shard.
type frameShard struct {
	mu sync.Mutex

	// frames waiting (incomplete) at this site. guarded by mu
	frames map[types.FrameID]*wire.Microframe
	// frameOwner is the directory for frames homed here but currently
	// held elsewhere (after a sign-off relocation or a crash restore).
	// guarded by mu
	frameOwner map[types.FrameID]types.SiteID
	// remap overrides the homesite for frames whose home left the
	// cluster; learned from broadcast HomeUpdates during sign-off.
	// guarded by mu
	remap map[types.FrameID]types.SiteID
	// consumed records frames that already fired, distinguishing the
	// programming error "parameter for a consumed frame" from routing
	// races worth retrying. guarded by mu
	consumed map[types.FrameID]bool
	// pendingRetries caps re-queues of parameters whose target frame is
	// in flight, so a parameter for a frame that never materializes is
	// eventually dropped instead of looping forever. guarded by mu
	pendingRetries map[wire.Target]int
}

// frameStore keeps the microframes waiting at this site and applies
// parameters to them, firing each frame once its last parameter lands.
type frameStore struct {
	*core
	shards  [shardCount]frameShard
	fire    FireFunc
	traffic func(prog types.ProgramID, bytes int)
	tr      *trace.Tracer

	logMu sync.Mutex
	// Sender-side logs for crash recovery ([4]): paramLog keeps every
	// parameter sent to a remote frame, grantLog every frame handed to
	// a peer (help replies, pushes). When a peer is declared crashed,
	// replay resends/re-injects them; duplicate applications are
	// rejected by the Filled/consumed guards, and deterministic
	// microthreads make re-execution converge on the same results.
	// guarded by logMu
	paramLog map[types.ProgramID][]loggedParam
	// guarded by logMu
	grantLog map[types.SiteID][]*wire.Microframe
}

// loggedParam is one replayable remote parameter application.
type loggedParam struct {
	target wire.Target
	data   []byte
}

func (fs *frameStore) init(c *core, fire FireFunc) {
	fs.core = c
	fs.fire = fire
	fs.traffic = func(types.ProgramID, int) {}
	fs.paramLog = make(map[types.ProgramID][]loggedParam)
	fs.grantLog = make(map[types.SiteID][]*wire.Microframe)
	for i := range fs.shards {
		s := &fs.shards[i]
		// Runs before the Manager is published, but taking the lock keeps
		// the guarded-by discipline uniform (and costs nothing once).
		s.mu.Lock()
		s.frames = make(map[types.FrameID]*wire.Microframe)
		s.frameOwner = make(map[types.FrameID]types.SiteID)
		s.remap = make(map[types.FrameID]types.SiteID)
		s.consumed = make(map[types.FrameID]bool)
		s.pendingRetries = make(map[wire.Target]int)
		s.mu.Unlock()
	}
}

func (fs *frameStore) shardFor(id types.FrameID) *frameShard { return &fs.shards[shardIndex(id)] }

// NewFrame allocates a microframe homed at this site. A zero-arity frame
// is executable immediately and goes straight to the scheduler; any other
// frame waits in the attraction memory for its parameters.
func (fs *frameStore) NewFrame(thread types.ThreadID, arity int, prio types.Priority, hint uint32, targets ...wire.Target) types.FrameID {
	id := fs.newAddr()
	f := wire.NewMicroframe(id, thread, arity, targets...)
	f.Prio = prio
	f.Hint = hint
	s := fs.shardFor(id)
	fs.lock(&s.mu)
	if arity == 0 {
		s.consumed[id] = true
		s.mu.Unlock()
		fs.counts.framesFired.Inc()
		fs.tr.Record(trace.EvFrameCreated, id, thread, "zero arity")
		fs.tr.Record(trace.EvFrameFired, id, thread, "")
		fs.fire(f)
		return id
	}
	s.frames[id] = f
	s.mu.Unlock()
	if fs.tr.Enabled() { // formatting the detail allocates; skip it when nobody reads it
		fs.tr.Record(trace.EvFrameCreated, id, thread, fmt.Sprintf("arity %d", arity))
	}
	return id
}

// AdoptFrame registers a frame that migrated here (sign-off relocation,
// grant replay, checkpoint recovery). The frame's homesite is informed
// so future parameters find it.
func (fs *frameStore) AdoptFrame(f *wire.Microframe) {
	s := fs.shardFor(f.ID)
	fs.lock(&s.mu)
	if s.consumed[f.ID] {
		s.mu.Unlock()
		return
	}
	if f.Executable() {
		s.consumed[f.ID] = true
		s.mu.Unlock()
		fs.counts.framesFired.Inc()
		fs.fire(f)
		return
	}
	s.frames[f.ID] = f
	s.mu.Unlock()
	self := fs.bus.Self()
	fs.tr.Record(trace.EvReceived, f.ID, f.Thread, "incomplete frame adopted")

	if f.ID.Home != self {
		_ = fs.bus.Send(f.ID.Home, types.MgrMemory, types.MgrMemory,
			&wire.HomeUpdate{Addr: f.ID, Owner: self})
	}
}

// Send applies one result datum to a parameter slot of a target frame,
// locally or across the cluster — the SDVM's fundamental dataflow step
// (paper §3.2, action 4). It retries transient routing failures: frames
// migrate, sites leave, directories lag.
func (fs *frameStore) Send(target wire.Target, data []byte) error {
	return fs.SendFor(0, target, data)
}

// SendFor is Send with the owning program recorded in the crash-recovery
// log (prog 0 skips logging; used for bootstrap-internal sends).
func (fs *frameStore) SendFor(prog types.ProgramID, target wire.Target, data []byte) error {
	if prog != 0 {
		fs.traffic(prog, len(data))
		fs.logMu.Lock()
		fs.paramLog[prog] = append(fs.paramLog[prog], loggedParam{target, append([]byte(nil), data...)})
		fs.logMu.Unlock()
	}
	if err := fs.retry(8, func() (bool, error) { return fs.trySend(target, data) }); err != nil {
		return fmt.Errorf("memory: apply %v: %w", target, err)
	}
	return nil
}

// trySend attempts one delivery. done=false means "retry may help".
func (fs *frameStore) trySend(target wire.Target, data []byte) (done bool, err error) {
	s := fs.shardFor(target.Addr)
	fs.lock(&s.mu)
	if f, ok := s.frames[target.Addr]; ok {
		err := fs.applyLocked(s, f, int(target.Slot), data)
		s.mu.Unlock()
		return true, err
	}
	if s.consumed[target.Addr] {
		s.mu.Unlock()
		return true, &types.AddrError{Err: types.ErrNoSuchFrame, Addr: target.Addr}
	}
	dst := fs.route(s.frameOwner, s.remap, target.Addr)
	s.mu.Unlock()

	if dst == types.InvalidSite || dst == fs.bus.Self() {
		// Nobody known to hold it (yet): relocation in flight.
		return false, &types.AddrError{Err: types.ErrNoSuchFrame, Addr: target.Addr}
	}
	if err := fs.bus.Send(dst, types.MgrMemory, types.MgrMemory,
		&wire.ApplyParam{Dst: target, Data: data}); err != nil {
		return false, err
	}
	return true, nil
}

// applyLocked fills a slot of a frame held in shard s, firing it if
// complete. Caller holds s.mu; the fire callback runs without the lock.
func (fs *frameStore) applyLocked(s *frameShard, f *wire.Microframe, slot int, data []byte) error {
	fires, err := f.Apply(slot, data)
	if err != nil {
		return err
	}
	fs.counts.paramsApplied.Inc()
	traced := fs.tr.Enabled()
	if !fires {
		if traced {
			fs.tr.Record(trace.EvParamApplied, f.ID, f.Thread, fmt.Sprintf("slot %d, %d missing", slot, f.Missing()))
		}
		return nil
	}
	delete(s.frames, f.ID)
	s.consumed[f.ID] = true
	fs.counts.framesFired.Inc()
	fire := fs.fire
	s.mu.Unlock()
	if traced {
		fs.tr.Record(trace.EvFrameFired, f.ID, f.Thread, fmt.Sprintf("last slot %d", slot))
	}
	fire(f)
	fs.lock(&s.mu)
	return nil
}

// RecordGrant logs a frame handed to a peer, for re-injection if that
// peer crashes before the frame's results are observed.
func (fs *frameStore) RecordGrant(grantee types.SiteID, f *wire.Microframe) {
	fs.logMu.Lock()
	fs.grantLog[grantee] = append(fs.grantLog[grantee], f.Clone())
	fs.logMu.Unlock()
}

// ReclaimGrants removes and returns the logged grants to grantee whose
// frame ids are in ids. The scheduler calls it when the help reply
// carrying those frames could not be delivered (the requester signed
// off gracefully, so no crash declaration will ever replay them).
// Sharing logMu with replay makes the hand-back atomic with crash
// replay: a frame is either returned here or replayed there, never both.
func (fs *frameStore) ReclaimGrants(grantee types.SiteID, ids []types.FrameID) []*wire.Microframe {
	want := make(map[types.FrameID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	fs.logMu.Lock()
	defer fs.logMu.Unlock()
	var reclaimed, kept []*wire.Microframe
	for _, f := range fs.grantLog[grantee] {
		if want[f.ID] {
			reclaimed = append(reclaimed, f)
		} else {
			kept = append(kept, f)
		}
	}
	if len(kept) == 0 {
		delete(fs.grantLog, grantee)
	} else {
		fs.grantLog[grantee] = kept
	}
	return reclaimed
}

// replay re-injects the frames granted to the crashed site dead and
// resends every logged parameter of programs still running.
func (fs *frameStore) replay(dead types.SiteID, running func(types.ProgramID) bool) {
	fs.logMu.Lock()
	granted := fs.grantLog[dead]
	delete(fs.grantLog, dead)
	var params []loggedParam
	for prog, entries := range fs.paramLog {
		if running == nil || running(prog) {
			params = append(params, entries...)
		}
	}
	fs.logMu.Unlock()

	for _, f := range granted {
		if running == nil || running(f.Thread.Program) {
			fs.AdoptFrame(f.Clone())
		}
	}
	for _, p := range params {
		// Ignore errors: most replays hit already-filled slots.
		_ = fs.Send(p.target, p.data)
	}
}

// FrameCount returns the number of waiting frames (site statistics).
func (fs *frameStore) FrameCount() int {
	n := 0
	for i := range fs.shards {
		s := &fs.shards[i]
		fs.lock(&s.mu)
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// evacuate empties the store for a sign-off to successor. It returns
// clones of the waiting frames and the directory updates to broadcast,
// and leaves a forwarding trail: parameters already in flight toward
// this site keep arriving while the daemon drains its inbox, and the
// local retry timer dies with the bus — they must be forwarded, not
// parked.
func (fs *frameStore) evacuate(successor types.SiteID) (frames []*wire.Microframe, updates []*wire.HomeUpdate) {
	self := fs.bus.Self()
	for i := range fs.shards {
		s := &fs.shards[i]
		fs.lock(&s.mu)
		for id, f := range s.frames {
			frames = append(frames, f.Clone())
			updates = append(updates, &wire.HomeUpdate{Addr: id, Owner: successor})
			if id.Home == self {
				s.frameOwner[id] = successor
			} else {
				s.remap[id] = successor
			}
		}
		s.frames = make(map[types.FrameID]*wire.Microframe)
		for id, owner := range s.frameOwner {
			updates = append(updates, &wire.HomeUpdate{Addr: id, Owner: owner})
		}
		s.mu.Unlock()
	}
	return frames, updates
}

// snapshot returns deep copies of the waiting frames of one program.
func (fs *frameStore) snapshot(prog types.ProgramID) (frames []*wire.Microframe) {
	for i := range fs.shards {
		s := &fs.shards[i]
		fs.lock(&s.mu)
		for _, f := range s.frames {
			if f.Thread.Program == prog {
				frames = append(frames, f.Clone())
			}
		}
		s.mu.Unlock()
	}
	return frames
}

// dropProgram discards a terminated program's frames and log entries.
func (fs *frameStore) dropProgram(prog types.ProgramID) {
	for i := range fs.shards {
		s := &fs.shards[i]
		fs.lock(&s.mu)
		for id, f := range s.frames {
			if f.Thread.Program == prog {
				delete(s.frames, id)
			}
		}
		s.mu.Unlock()
	}
	fs.logMu.Lock()
	delete(fs.paramLog, prog)
	for grantee, frames := range fs.grantLog {
		kept := frames[:0]
		for _, f := range frames {
			if f.Thread.Program != prog {
				kept = append(kept, f)
			}
		}
		fs.grantLog[grantee] = kept
	}
	fs.logMu.Unlock()
}

// ---------------------------------------------------------------------------
// Message handling (msgbus dispatcher; must not block).

// HandleMessage serves the frame store's share of MgrMemory traffic.
func (fs *frameStore) HandleMessage(msg *wire.Message) {
	switch p := msg.Payload.(type) {
	case *wire.ApplyParam:
		fs.handleApplyParam(p)
	case *wire.FrameRelocate:
		for _, f := range p.Frames {
			fs.AdoptFrame(f)
		}
	case *wire.HomeUpdate:
		s := fs.shardFor(p.Addr)
		fs.lock(&s.mu)
		_, waiting := s.frames[p.Addr]
		fs.applyHomeUpdate(s.frameOwner, s.remap, p, waiting || s.consumed[p.Addr])
		s.mu.Unlock()
	}
}

func (fs *frameStore) handleApplyParam(p *wire.ApplyParam) {
	s := fs.shardFor(p.Dst.Addr)
	fs.lock(&s.mu)
	if f, ok := s.frames[p.Dst.Addr]; ok {
		// Errors here are dataflow programming errors (double-filled
		// slot); they are counted but cannot be reported to the remote
		// sender meaningfully.
		_ = fs.applyLocked(s, f, int(p.Dst.Slot), p.Data)
		s.mu.Unlock()
		return
	}
	if s.consumed[p.Dst.Addr] {
		s.mu.Unlock()
		return
	}
	dst := fs.route(s.frameOwner, s.remap, p.Dst.Addr)
	s.mu.Unlock()

	if dst != types.InvalidSite && dst != fs.bus.Self() {
		if err := fs.bus.Send(dst, types.MgrMemory, types.MgrMemory, p); err == nil {
			return
		}
		// The forward target just left or crashed; fall through to the
		// retry path — routing will heal once relocation broadcasts or
		// crash recovery update the directories.
	}
	// Frame not here and not (reachably) known elsewhere: likely
	// in-flight. Retry shortly rather than dropping the parameter, but
	// give up after ~5s so dead programs cannot loop forever.
	fs.lock(&s.mu)
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
		_ = fs.bus.Send(fs.bus.Self(), types.MgrMemory, types.MgrMemory, dup)
	})
}
