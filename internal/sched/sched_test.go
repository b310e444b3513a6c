package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mthread"
	"repro/internal/testnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// fakeResolver resolves every thread to a no-op function, optionally
// with delay (to exercise the executable→ready pipeline).
type fakeResolver struct {
	delay time.Duration
	fail  map[types.ThreadID]bool
	mu    sync.Mutex
	calls int
}

func (r *fakeResolver) Resolve(thread types.ThreadID) (mthread.Func, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	if r.fail[thread] {
		return nil, types.ErrNoBinary
	}
	return func(mthread.Context) error { return nil }, nil
}

// fakeAdopter collects adopted frames and grant records.
type fakeAdopter struct {
	mu      sync.Mutex
	adopted []*wire.Microframe
	grants  map[types.SiteID]int
}

func newFakeAdopter() *fakeAdopter {
	return &fakeAdopter{grants: make(map[types.SiteID]int)}
}

func (a *fakeAdopter) AdoptFrame(f *wire.Microframe) {
	a.mu.Lock()
	a.adopted = append(a.adopted, f)
	a.mu.Unlock()
}

func (a *fakeAdopter) RecordGrant(grantee types.SiteID, f *wire.Microframe) {
	a.mu.Lock()
	a.grants[grantee]++
	a.mu.Unlock()
}

// schedCluster builds n sites each with a scheduling manager.
func schedCluster(t testing.TB, n int, cfg Config) ([]*testnet.Node, []*Manager) {
	t.Helper()
	mgrs := make([]*Manager, n)
	nodes := testnet.NewCluster(t, n, func(i int, node *testnet.Node) {
		mgrs[i] = New(node.Bus, node.CM, &fakeResolver{}, cfg)
		mgrs[i].SetAdopter(newFakeAdopter())
		mgrs[i].Start()
	})
	for _, m := range mgrs {
		t.Cleanup(m.Close)
	}
	return nodes, mgrs
}

func frameFor(home types.SiteID, local uint64, prio types.Priority) *wire.Microframe {
	f := wire.NewMicroframe(
		types.GlobalAddr{Home: home, Local: local},
		types.ThreadID{Program: types.MakeProgramID(1, 1), Index: 0},
		0,
	)
	f.Prio = prio
	return f
}

func TestEnqueueGetWork(t *testing.T) {
	_, mgrs := schedCluster(t, 1, Config{})
	m := mgrs[0]
	f := frameFor(1, 1, types.PriorityNormal)
	m.Enqueue(f)

	r, ok := m.GetWork()
	if !ok {
		t.Fatal("GetWork failed")
	}
	if r.Frame.ID != f.ID || r.Fn == nil {
		t.Fatal("wrong ready frame")
	}
	s := m.Stats()
	if s.Enqueued != 1 || s.Dispatched != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLocalFIFOOrder(t *testing.T) {
	_, mgrs := schedCluster(t, 1, Config{})
	m := mgrs[0]
	for i := uint64(1); i <= 5; i++ {
		m.Enqueue(frameFor(1, i, types.PriorityNormal))
	}
	for i := uint64(1); i <= 5; i++ {
		r, ok := m.GetWork()
		if !ok || r.Frame.ID.Local != i {
			t.Fatalf("FIFO violated: got %v, want local %d", r.Frame.ID, i)
		}
	}
}

func TestTryGetWork(t *testing.T) {
	_, mgrs := schedCluster(t, 1, Config{})
	m := mgrs[0]
	if _, ok := m.TryGetWork(); ok {
		t.Fatal("TryGetWork on empty queue succeeded")
	}
	m.Enqueue(frameFor(1, 1, types.PriorityNormal))
	testnet.WaitFor(t, "ready", func() bool {
		_, ok := m.TryGetWork()
		return ok
	})
}

func TestHelpRequestMovesWork(t *testing.T) {
	_, mgrs := schedCluster(t, 2, Config{})
	busy, idle := mgrs[0], mgrs[1]

	// Load the busy site with exactly two frames: more than one (the
	// keep-one rule refuses to surrender the last frame) but few enough
	// that proactive scatter can never fire — scatter only ships frames
	// once the local depth is already ≥ 2, and whether the peer is
	// visible that early depends on membership-propagation timing. With
	// three or more frames the surplus may be scattered to the idle
	// site, which then finds local work and never issues the help
	// request this test exists to exercise.
	for i := uint64(1); i <= 2; i++ {
		busy.Enqueue(frameFor(1, i, types.PriorityNormal))
	}
	// The idle site's GetWork should obtain one via a help request.
	done := make(chan *Ready, 1)
	go func() {
		r, ok := idle.GetWork()
		if ok {
			done <- r
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("help request did not deliver work")
	}
	if s := idle.Stats(); s.HelpGranted == 0 {
		t.Fatalf("idle stats = %+v", s)
	}
	if s := busy.Stats(); s.HelpServed == 0 {
		t.Fatalf("busy stats = %+v", s)
	}
}

// gateResolver blocks every Resolve until the gate opens, so frames stay
// in the executable queue where a help reply can take them.
type gateResolver struct {
	entered chan struct{}
	gate    chan struct{}
}

func newGateResolver() *gateResolver {
	return &gateResolver{entered: make(chan struct{}, 1), gate: make(chan struct{})}
}

func (r *gateResolver) Resolve(types.ThreadID) (mthread.Func, error) {
	select {
	case r.entered <- struct{}{}:
	default:
	}
	<-r.gate
	return func(mthread.Context) error { return nil }, nil
}

// TestHelpReplySurrendersOldestFirst pins the surrender order every site
// runs: help replies hand out the oldest non-critical frame first, and a
// critical frame is never given away however often the peer asks.
func TestHelpReplySurrendersOldestFirst(t *testing.T) {
	res := newGateResolver()
	var busy *Manager
	nodes := testnet.NewCluster(t, 2, func(i int, node *testnet.Node) {
		if i == 0 {
			busy = New(node.Bus, node.CM, res, Config{})
			busy.SetAdopter(newFakeAdopter())
			busy.Start()
		}
	})
	t.Cleanup(busy.Close)
	t.Cleanup(func() { close(res.gate) }) // runs first: unblocks the resolve loop

	// The resolve loop takes the first frame and blocks on it; the rest
	// stay executable. Granted frames never scatter, so the queue holds
	// exactly what is enqueued here.
	busy.enqueueForeign(frameFor(1, 100, types.PriorityNormal))
	select {
	case <-res.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("resolve loop never picked up a frame")
	}
	busy.enqueueForeign(frameFor(1, 1, types.PriorityNormal))
	busy.enqueueForeign(frameFor(1, 2, types.PriorityCritical))
	for i := uint64(3); i <= 5; i++ {
		busy.enqueueForeign(frameFor(1, i, types.PriorityNormal))
	}

	var got []uint64
	for round := 0; ; round++ {
		if round > 10 {
			t.Fatalf("still granting after %d rounds: %v", round, got)
		}
		reply, err := nodes[1].Bus.Request(busy.bus.Self(), types.MgrScheduling, types.MgrScheduling,
			&wire.HelpRequest{Requester: nodes[1].Bus.Self()}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		hr := reply.Payload.(*wire.HelpReply)
		if hr.CantHelp {
			break
		}
		for _, f := range hr.Frames {
			got = append(got, f.ID.Local)
		}
	}
	if want := []uint64{1, 3, 4, 5}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("surrendered %v, want %v (oldest first, critical kept)", got, want)
	}
	if n := busy.QueueLen(); n != 1 {
		t.Fatalf("%d frames left queued, want the critical one", n)
	}
}

// waitResolved waits until n frames sit in m's ready queue. A frame the
// resolve loop holds in hand is in neither queue, so the surplus a help
// reply sees is only settled once every frame has been resolved.
func waitResolved(t *testing.T, m *Manager, n int) {
	t.Helper()
	testnet.WaitFor(t, "resolved", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.ready.len() == n
	})
}

func TestHelpReplyBatchesDeepQueue(t *testing.T) {
	// Frames a peer granted never scatter, so the queue depth at
	// help-request time is deterministic.
	_, mgrs := schedCluster(t, 2, Config{})
	master, worker := mgrs[0], mgrs[1]
	for i := uint64(1); i <= 8; i++ {
		master.enqueueForeign(frameFor(1, i, types.PriorityNormal))
	}
	waitResolved(t, master, 8)
	reply, err := worker.bus.Request(master.bus.Self(), types.MgrScheduling, types.MgrScheduling,
		&wire.HelpRequest{Requester: worker.bus.Self()}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hr := reply.Payload.(*wire.HelpReply)
	if hr.CantHelp {
		t.Fatal("deep queue refused to help")
	}
	// Surplus is 7 (the keep-one rule holds one back); half of it capped
	// by helpBatch=4 must arrive in one reply.
	if len(hr.Frames) != 4 {
		t.Fatalf("got %d frames in one help reply, want 4", len(hr.Frames))
	}
	seen := map[types.GlobalAddr]bool{}
	for _, f := range hr.Frames {
		if f == nil {
			t.Fatal("nil frame in batch")
		}
		if seen[f.ID] {
			t.Fatalf("frame %v granted twice in one batch", f.ID)
		}
		seen[f.ID] = true
	}
	if s := master.Stats(); s.HelpServed != 4 {
		t.Fatalf("HelpServed = %d, want 4", s.HelpServed)
	}
}

func TestCantHelpWhenEmpty(t *testing.T) {
	_, mgrs := schedCluster(t, 2, Config{})
	a, b := mgrs[0], mgrs[1]
	reply, err := a.bus.Request(b.bus.Self(), types.MgrScheduling, types.MgrScheduling,
		&wire.HelpRequest{Requester: a.bus.Self()}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Payload.(*wire.HelpReply).CantHelp {
		t.Fatal("empty site helped")
	}
}

func TestKeepsLastFrame(t *testing.T) {
	_, mgrs := schedCluster(t, 2, Config{})
	a, b := mgrs[0], mgrs[1]
	a.Enqueue(frameFor(1, 1, types.PriorityNormal))
	reply, err := b.bus.Request(a.bus.Self(), types.MgrScheduling, types.MgrScheduling,
		&wire.HelpRequest{Requester: b.bus.Self()}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Payload.(*wire.HelpReply).CantHelp {
		t.Fatal("site gave away its only frame")
	}
}

func TestFramePushAccepted(t *testing.T) {
	_, mgrs := schedCluster(t, 2, Config{})
	a, b := mgrs[0], mgrs[1]
	f := frameFor(a.bus.Self(), 7, types.PriorityNormal)
	if err := a.PushFrame(b.bus.Self(), f); err != nil {
		t.Fatal(err)
	}
	r, ok := b.GetWork()
	if !ok || r.Frame.ID != f.ID {
		t.Fatal("pushed frame not received")
	}
}

func TestIncompleteFrameGoesToAdopter(t *testing.T) {
	_, mgrs := schedCluster(t, 2, Config{})
	a, b := mgrs[0], mgrs[1]
	ad := newFakeAdopter()
	b.SetAdopter(ad)

	incomplete := wire.NewMicroframe(
		types.GlobalAddr{Home: a.bus.Self(), Local: 9},
		types.ThreadID{Program: types.MakeProgramID(1, 1), Index: 0},
		2,
	)
	if err := a.PushFrame(b.bus.Self(), incomplete); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "adoption", func() bool {
		ad.mu.Lock()
		defer ad.mu.Unlock()
		return len(ad.adopted) == 1
	})
}

func TestGrantsAreRecorded(t *testing.T) {
	_, mgrs := schedCluster(t, 2, Config{})
	a, b := mgrs[0], mgrs[1]
	ad := newFakeAdopter()
	a.SetAdopter(ad)
	for i := uint64(1); i <= 3; i++ {
		a.Enqueue(frameFor(1, i, types.PriorityNormal))
	}
	reply, err := b.bus.Request(a.bus.Self(), types.MgrScheduling, types.MgrScheduling,
		&wire.HelpRequest{Requester: b.bus.Self()}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Payload.(*wire.HelpReply).CantHelp {
		t.Fatal("no grant")
	}
	ad.mu.Lock()
	defer ad.mu.Unlock()
	// At least one grant to b: the help reply itself, plus possibly a
	// proactive scatter of the surplus third frame.
	if ad.grants[b.bus.Self()] == 0 {
		t.Fatalf("grants = %v", ad.grants)
	}
}

// reclaimAdopter extends fakeAdopter with the grant-log hand-back the
// attraction memory offers: ReclaimGrants returns the stored frames so
// the scheduler can requeue a batch whose reply bounced.
type reclaimAdopter struct {
	fakeAdopter
	stored    map[types.SiteID][]*wire.Microframe
	reclaimed int
}

func newReclaimAdopter() *reclaimAdopter {
	return &reclaimAdopter{
		fakeAdopter: fakeAdopter{grants: make(map[types.SiteID]int)},
		stored:      make(map[types.SiteID][]*wire.Microframe),
	}
}

func (a *reclaimAdopter) RecordGrant(grantee types.SiteID, f *wire.Microframe) {
	a.fakeAdopter.RecordGrant(grantee, f)
	a.mu.Lock()
	a.stored[grantee] = append(a.stored[grantee], f.Clone())
	a.mu.Unlock()
}

func (a *reclaimAdopter) ReclaimGrants(grantee types.SiteID, ids []types.FrameID) []*wire.Microframe {
	want := make(map[types.FrameID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out, kept []*wire.Microframe
	for _, f := range a.stored[grantee] {
		if want[f.ID] {
			out = append(out, f)
		} else {
			kept = append(kept, f)
		}
	}
	a.stored[grantee] = kept
	a.reclaimed += len(out)
	return out
}

// TestHelpReplyUndeliverableReclaimed models the sign-off race that used
// to strand computations: a site asks for help and then leaves before
// the reply arrives. The reply cannot be delivered, no crash is ever
// declared (the leave was graceful), so without the salvage path the
// whole granted batch would be lost. The granter must take the grants
// back from the log and requeue every frame locally.
func TestHelpReplyUndeliverableReclaimed(t *testing.T) {
	// Granted frames never scatter, so the queue depth is deterministic
	// (see TestHelpReplyBatchesDeepQueue).
	_, mgrs := schedCluster(t, 2, Config{})
	master := mgrs[0]
	ad := newReclaimAdopter()
	master.SetAdopter(ad)

	const n = 8
	for i := uint64(1); i <= n; i++ {
		master.enqueueForeign(frameFor(1, i, types.PriorityNormal))
	}
	waitResolved(t, master, n)

	// A help request from a site no longer in the roster: the reply's
	// address lookup fails, which is exactly what a granter sees when
	// the requester signed off between asking and receiving.
	ghost := types.SiteID(4242)
	master.HandleMessage(&wire.Message{
		Src:     ghost,
		Dst:     master.bus.Self(),
		SrcMgr:  types.MgrScheduling,
		DstMgr:  types.MgrScheduling,
		Seq:     999,
		Payload: &wire.HelpRequest{Requester: ghost},
	})

	// The batch was surrendered, the reply bounced, and every frame must
	// be back in the queue with its grant-log entries consumed.
	testnet.WaitFor(t, "requeued", func() bool { return master.QueueLen() == n })
	ad.mu.Lock()
	defer ad.mu.Unlock()
	if ad.grants[ghost] != 4 {
		t.Fatalf("grants logged to ghost = %d, want 4", ad.grants[ghost])
	}
	if ad.reclaimed != 4 {
		t.Fatalf("reclaimed = %d, want 4", ad.reclaimed)
	}
	if len(ad.stored[ghost]) != 0 {
		t.Fatalf("%d grant-log entries left for the ghost, want 0", len(ad.stored[ghost]))
	}
}

// TestParkedPushUndeliverableReclaimed pins the loss channel behind the
// long-standing TestSignOffMidRun flake: a hungry site gets parked, then
// signs off; the next surplus frame is pushed to it, the send fails, and
// the frame used to vanish — grant-logged to a site that never crashes,
// so nothing ever replayed it. The push must reclaim the grant and
// requeue the frame locally.
func TestParkedPushUndeliverableReclaimed(t *testing.T) {
	_, mgrs := schedCluster(t, 2, Config{})
	m := mgrs[0]
	ad := newReclaimAdopter()
	m.SetAdopter(ad)

	// A help request from a site that departs right after: refused
	// (empty queue), so the requester is parked for the next surplus.
	ghost := types.SiteID(4242)
	m.HandleMessage(&wire.Message{
		Src:     ghost,
		Dst:     m.bus.Self(),
		SrcMgr:  types.MgrScheduling,
		DstMgr:  types.MgrScheduling,
		Seq:     1,
		Payload: &wire.HelpRequest{Requester: ghost},
	})

	// The second enqueue makes a surplus and feeds the parked ghost;
	// that push bounces and the frame must come back.
	m.Enqueue(frameFor(1, 1, types.PriorityNormal))
	m.Enqueue(frameFor(1, 2, types.PriorityNormal))
	testnet.WaitFor(t, "requeued", func() bool { return m.QueueLen() == 2 })

	ad.mu.Lock()
	defer ad.mu.Unlock()
	if ad.reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1", ad.reclaimed)
	}
	if len(ad.stored[ghost]) != 0 {
		t.Fatalf("%d grant-log entries left for the ghost, want 0", len(ad.stored[ghost]))
	}
}

// TestClosedEnqueueFollowsSuccessor pins the other half of the sign-off
// fix: a frame arriving after Close must be pushed to the designated
// sign-off successor — the site that inherited the leaver's queue and
// memory — not to a random roster pick (and never dropped).
func TestClosedEnqueueFollowsSuccessor(t *testing.T) {
	_, mgrs := schedCluster(t, 3, Config{})
	leaver, other, heir := mgrs[0], mgrs[1], mgrs[2]

	leaver.SetFallback(heir.bus.Self())
	leaver.Close()

	// A late help reply drains from the leaver's bus inbox after Close.
	f := frameFor(1, 77, types.PriorityNormal)
	leaver.enqueueForeign(f)

	r, ok := heir.GetWork()
	if !ok || r.Frame.ID != f.ID {
		t.Fatal("late frame did not reach the sign-off successor")
	}
	if n := other.QueueLen(); n != 0 {
		t.Fatalf("%d frames at a non-successor site", n)
	}
}

func TestDropProgramDiscardsFrames(t *testing.T) {
	_, mgrs := schedCluster(t, 1, Config{})
	m := mgrs[0]
	prog := types.MakeProgramID(1, 1)
	m.Enqueue(frameFor(1, 1, types.PriorityNormal))
	testnet.WaitFor(t, "queued", func() bool { return m.QueueLen() == 1 })
	m.DropProgram(prog)
	if m.QueueLen() != 0 {
		t.Fatal("frames survived DropProgram")
	}
	// Frames of a dead program are rejected on arrival, too.
	m.Enqueue(frameFor(1, 2, types.PriorityNormal))
	if m.QueueLen() != 0 {
		t.Fatal("dead program's frame enqueued")
	}
}

func TestSnapshotFrames(t *testing.T) {
	_, mgrs := schedCluster(t, 1, Config{})
	m := mgrs[0]
	m.Enqueue(frameFor(1, 1, types.PriorityNormal))
	m.Enqueue(frameFor(1, 2, types.PriorityNormal))
	testnet.WaitFor(t, "queued", func() bool { return m.QueueLen() == 2 })
	snap := m.SnapshotFrames(types.MakeProgramID(1, 1))
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d frames", len(snap))
	}
	// Snapshot must be deep copies.
	snap[0].Prio = types.PriorityCritical
	again := m.SnapshotFrames(types.MakeProgramID(1, 1))
	for _, f := range again {
		if f.Prio == types.PriorityCritical {
			t.Fatal("snapshot aliases queue frames")
		}
	}
}

func TestDrainAll(t *testing.T) {
	_, mgrs := schedCluster(t, 1, Config{})
	m := mgrs[0]
	for i := uint64(1); i <= 4; i++ {
		m.Enqueue(frameFor(1, i, types.PriorityNormal))
	}
	testnet.WaitFor(t, "queued", func() bool { return m.QueueLen() == 4 })
	frames := m.DrainAll()
	if len(frames) != 4 {
		t.Fatalf("DrainAll returned %d frames", len(frames))
	}
	if m.QueueLen() != 0 {
		t.Fatal("queue not empty after drain")
	}
}

func TestCloseUnblocksGetWork(t *testing.T) {
	_, mgrs := schedCluster(t, 1, Config{})
	m := mgrs[0]
	done := make(chan bool, 1)
	go func() {
		_, ok := m.GetWork()
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	m.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("GetWork returned work after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetWork blocked after Close")
	}
}

func TestResolveErrorDropsFrame(t *testing.T) {
	res := &fakeResolver{fail: map[types.ThreadID]bool{
		{Program: types.MakeProgramID(1, 1), Index: 0}: true,
	}}
	nodes := testnet.NewCluster(t, 1, nil)
	m := New(nodes[0].Bus, nodes[0].CM, res, Config{})
	m.Start()
	t.Cleanup(m.Close)

	m.Enqueue(frameFor(1, 1, types.PriorityNormal))
	testnet.WaitFor(t, "resolve error", func() bool {
		return m.Stats().ResolveErrs == 1
	})
	if _, ok := m.TryGetWork(); ok {
		t.Fatal("unresolvable frame became ready")
	}
}

// TestHelpFollowsGossipedQueue pins the one help picker: the roster
// scan sends an idle site's request to the peer whose gossiped
// statistics advertise queued work, both in a cluster one help round
// covers and in one where idle sites ask only advertised donors.
func TestHelpFollowsGossipedQueue(t *testing.T) {
	for _, n := range []int{3, maxHelpFanout + 2} {
		t.Run(fmt.Sprintf("%d-sites", n), func(t *testing.T) {
			nodes, mgrs := schedCluster(t, n, Config{})
			busy, idle := mgrs[0], mgrs[n-1]
			for i := uint64(1); i <= 2; i++ {
				busy.Enqueue(frameFor(1, i, types.PriorityNormal))
			}
			testnet.WaitFor(t, "frames queued", func() bool { return busy.QueueLen() == 2 })
			nodes[0].Gossip.Tick(1.0, int32(busy.QueueLen()), 1)
			testnet.WaitFor(t, "queue depth gossiped", func() bool {
				s, ok := nodes[n-1].CM.Lookup(busy.bus.Self())
				return ok && s.QueueLen == 2
			})

			done := make(chan struct{})
			go func() {
				if _, ok := idle.GetWork(); ok {
					close(done)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("help request did not deliver work")
			}
			if s := busy.Stats(); s.HelpServed == 0 {
				t.Fatalf("busy stats = %+v", s)
			}
			for _, bystander := range mgrs[1 : n-1] {
				if s := bystander.Stats(); s.HelpRefused != 0 {
					t.Fatalf("help request went to an idle peer: %+v", s)
				}
			}
		})
	}
}

// TestIdleHelpRoundsFollowRosterSize pins when an idle site asks blind.
// With at most maxHelpFanout peers one round reaches all of them, so an
// idle site keeps asking though no peer advertises work; with more, an
// idle cluster sends no help requests at all.
func TestIdleHelpRoundsFollowRosterSize(t *testing.T) {
	for _, n := range []int{maxHelpFanout + 1, maxHelpFanout + 2} {
		t.Run(fmt.Sprintf("%d-sites", n), func(t *testing.T) {
			_, mgrs := schedCluster(t, n, Config{})
			idle := mgrs[n-1]
			go idle.GetWork() // returns when the manager closes
			time.Sleep(200 * time.Millisecond)
			asked := idle.Stats().HelpAsked
			if blind := n-1 <= maxHelpFanout; blind != (asked > 0) {
				t.Fatalf("%d sites: %d help requests in 200ms, blind rounds expected: %v", n, asked, blind)
			}
		})
	}
}
