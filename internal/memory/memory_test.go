package memory

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/testnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// fireCollector gathers fired frames.
type fireCollector struct {
	mu     sync.Mutex
	frames []*wire.Microframe
	ch     chan *wire.Microframe
}

func newFireCollector() *fireCollector {
	return &fireCollector{ch: make(chan *wire.Microframe, 256)}
}

func (c *fireCollector) fire(f *wire.Microframe) {
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.mu.Unlock()
	select {
	case c.ch <- f:
	default:
		// The channel is a convenience for tests that wait on a single
		// fire; high-volume tests read c.frames instead. Fire callbacks
		// must never block (the attraction memory calls them inline).
	}
}

func (c *fireCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// memCluster builds n sites each carrying an attraction memory.
func memCluster(t *testing.T, n int) ([]*testnet.Node, []*Manager, []*fireCollector) {
	t.Helper()
	mems := make([]*Manager, n)
	fires := make([]*fireCollector, n)
	nodes := testnet.NewCluster(t, n, func(i int, node *testnet.Node) {
		fires[i] = newFireCollector()
		mems[i] = New(node.Bus, fires[i].fire)
	})
	return nodes, mems, fires
}

func prog() types.ProgramID { return types.MakeProgramID(1, 1) }

func thread(idx uint32) types.ThreadID { return types.ThreadID{Program: prog(), Index: idx} }

func TestAllocReadWriteLocal(t *testing.T) {
	_, mems, _ := memCluster(t, 1)
	m := mems[0]

	addr := m.Alloc(prog(), []byte("hello"))
	got, err := m.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("Read = %q", got)
	}
	if err := m.Write(addr, 0, []byte("H")); err != nil {
		t.Fatal(err)
	}
	got, _ = m.Read(addr)
	if string(got) != "Hello" {
		t.Fatalf("after write, Read = %q", got)
	}
	// Write past the end extends the object.
	if err := m.Write(addr, 5, []byte("!!")); err != nil {
		t.Fatal(err)
	}
	got, _ = m.Read(addr)
	if string(got) != "Hello!!" {
		t.Fatalf("after extend, Read = %q", got)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	_, mems, _ := memCluster(t, 1)
	m := mems[0]
	addr := m.Alloc(prog(), []byte{1, 2, 3})
	got, _ := m.Read(addr)
	got[0] = 99
	again, _ := m.Read(addr)
	if again[0] != 1 {
		t.Fatal("Read result aliases the stored object")
	}
}

func TestRemoteReadViaHomesite(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	a, b := mems[0], mems[1]

	addr := a.Alloc(prog(), []byte("remote data"))
	got, err := b.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "remote data" {
		t.Fatalf("remote Read = %q", got)
	}
	// The object stays with its owner on a plain read.
	if a.ObjectCount() != 1 || b.ObjectCount() != 0 {
		t.Fatalf("ownership moved on read: a=%d b=%d", a.ObjectCount(), b.ObjectCount())
	}
}

func TestRemoteWriteInPlace(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	a, b := mems[0], mems[1]
	addr := a.Alloc(prog(), []byte("xxxx"))
	if err := b.Write(addr, 1, []byte("YZ")); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Read(addr)
	if string(got) != "xYZx" {
		t.Fatalf("after remote write, owner sees %q", got)
	}
}

func TestAttractMigratesOwnership(t *testing.T) {
	nodes, mems, _ := memCluster(t, 3)
	a, b, c := mems[0], mems[1], mems[2]

	addr := a.Alloc(prog(), []byte("migrant"))
	got, err := b.Attract(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "migrant" {
		t.Fatalf("Attract = %q", got)
	}
	testnet.WaitFor(t, "ownership moved to b", func() bool {
		return a.ObjectCount() == 0 && b.ObjectCount() == 1
	})

	// c reads via the homesite directory: a must redirect to b.
	got, err = c.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "migrant" {
		t.Fatalf("read after migration = %q", got)
	}

	// And writes from a (the homesite itself) follow the directory too.
	if err := a.Write(addr, 0, []byte("M")); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Read(addr)
	if string(got) != "Migrant" {
		t.Fatalf("read after homesite write = %q", got)
	}
	_ = nodes
}

func TestAttractChain(t *testing.T) {
	// Object hops a -> b -> c; the directory must follow.
	_, mems, _ := memCluster(t, 3)
	a, b, c := mems[0], mems[1], mems[2]
	addr := a.Alloc(prog(), []byte("hop"))
	if _, err := b.Attract(addr); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "b owns", func() bool { return b.ObjectCount() == 1 })
	if _, err := c.Attract(addr); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "c owns", func() bool { return c.ObjectCount() == 1 && b.ObjectCount() == 0 })
	got, err := a.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hop" {
		t.Fatalf("Read = %q", got)
	}
}

func TestReadUnknownObject(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	bogus := types.GlobalAddr{Home: 1, Local: 9999}
	if _, err := mems[1].Read(bogus); !errors.Is(err, types.ErrNoSuchObject) {
		t.Fatalf("Read unknown = %v", err)
	}
	if err := mems[1].Write(bogus, 0, []byte("x")); !errors.Is(err, types.ErrNoSuchObject) {
		t.Fatalf("Write unknown = %v", err)
	}
}

func TestZeroArityFrameFiresImmediately(t *testing.T) {
	_, mems, fires := memCluster(t, 1)
	id := mems[0].NewFrame(thread(1), 0, types.PriorityNormal, 0)
	f := <-fires[0].ch
	if f.ID != id || f.Thread != thread(1) {
		t.Fatalf("fired frame = %v", f)
	}
}

func TestLocalDataflowFiring(t *testing.T) {
	_, mems, fires := memCluster(t, 1)
	m := mems[0]
	id := m.NewFrame(thread(7), 2, types.PriorityNormal, 0)

	if err := m.Send(wire.Target{Addr: id, Slot: 0}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if fires[0].count() != 0 {
		t.Fatal("frame fired before all parameters arrived")
	}
	if err := m.Send(wire.Target{Addr: id, Slot: 1}, []byte("b")); err != nil {
		t.Fatal(err)
	}
	f := <-fires[0].ch
	if !f.Executable() {
		t.Fatal("fired frame not executable")
	}
	if string(f.Params[0]) != "a" || string(f.Params[1]) != "b" {
		t.Fatalf("params = %q %q", f.Params[0], f.Params[1])
	}
	if m.FrameCount() != 0 {
		t.Fatal("consumed frame still stored")
	}
}

func TestRemoteDataflowFiring(t *testing.T) {
	_, mems, fires := memCluster(t, 2)
	a, b := mems[0], mems[1]
	id := a.NewFrame(thread(3), 2, types.PriorityNormal, 0)

	// Both parameters arrive from the remote site b.
	if err := b.Send(wire.Target{Addr: id, Slot: 1}, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(wire.Target{Addr: id, Slot: 0}, []byte("first")); err != nil {
		t.Fatal(err)
	}
	f := <-fires[0].ch
	if string(f.Params[0]) != "first" || string(f.Params[1]) != "second" {
		t.Fatalf("params = %q %q", f.Params[0], f.Params[1])
	}
	if fires[1].count() != 0 {
		t.Fatal("frame fired on the wrong site")
	}
}

func TestFrameFiresExactlyOnce(t *testing.T) {
	_, mems, fires := memCluster(t, 1)
	m := mems[0]
	id := m.NewFrame(thread(1), 1, types.PriorityNormal, 0)
	if err := m.Send(wire.Target{Addr: id, Slot: 0}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	<-fires[0].ch
	// A second application must fail, not re-fire.
	err := m.Send(wire.Target{Addr: id, Slot: 0}, []byte("y"))
	if !errors.Is(err, types.ErrNoSuchFrame) {
		t.Fatalf("second apply = %v", err)
	}
	if fires[0].count() != 1 {
		t.Fatalf("fired %d times", fires[0].count())
	}
}

func TestDoubleSlotRejected(t *testing.T) {
	_, mems, _ := memCluster(t, 1)
	m := mems[0]
	id := m.NewFrame(thread(1), 2, types.PriorityNormal, 0)
	if err := m.Send(wire.Target{Addr: id, Slot: 0}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(wire.Target{Addr: id, Slot: 0}, []byte("y")); !errors.Is(err, types.ErrSlotFilled) {
		t.Fatalf("double slot = %v", err)
	}
}

func TestFrameMigrationReroutesParameters(t *testing.T) {
	_, mems, fires := memCluster(t, 3)
	a, b, c := mems[0], mems[1], mems[2]

	// Frame homed at a, with one of two params filled.
	id := a.NewFrame(thread(9), 2, types.PriorityNormal, 0)
	if err := a.Send(wire.Target{Addr: id, Slot: 0}, []byte("early")); err != nil {
		t.Fatal(err)
	}

	// Move the waiting frame to b the way a sign-off does: a
	// FrameRelocate to b, whose AdoptFrame reports the new owner to the
	// homesite a.
	if err := a.EvacuateTo(b.bus.Self()); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "b holds the frame", func() bool { return b.FrameCount() == 1 })

	// The last parameter, sent from c, must find the frame at b (via
	// the homesite directory at a) and fire it there.
	if err := c.Send(wire.Target{Addr: id, Slot: 1}, []byte("late")); err != nil {
		t.Fatal(err)
	}
	fired := <-fires[1].ch
	if string(fired.Params[0]) != "early" || string(fired.Params[1]) != "late" {
		t.Fatalf("params = %q %q", fired.Params[0], fired.Params[1])
	}
	if fires[0].count() != 0 || fires[2].count() != 0 {
		t.Fatal("frame fired on the wrong site")
	}
}

func TestEvacuateMovesEverything(t *testing.T) {
	_, mems, fires := memCluster(t, 3)
	a, b, c := mems[0], mems[1], mems[2]

	addr := b.Alloc(prog(), []byte("payload"))
	id := b.NewFrame(thread(2), 2, types.PriorityNormal, 0)
	if err := b.Send(wire.Target{Addr: id, Slot: 0}, []byte("p0")); err != nil {
		t.Fatal(err)
	}

	// b leaves: everything moves to c.
	if err := b.EvacuateTo(c.bus.Self()); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "c adopted state", func() bool {
		return c.ObjectCount() == 1 && c.FrameCount() == 1
	})

	// Data remains reachable from a.
	got, err := a.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("Read after evacuation = %q", got)
	}

	// The waiting frame still fires when its last parameter arrives.
	if err := a.Send(wire.Target{Addr: id, Slot: 1}, []byte("p1")); err != nil {
		t.Fatal(err)
	}
	fired := <-fires[2].ch
	if !bytes.Equal(fired.Params[0], []byte("p0")) || !bytes.Equal(fired.Params[1], []byte("p1")) {
		t.Fatalf("params after evacuation = %q %q", fired.Params[0], fired.Params[1])
	}
}

func TestSnapshotAndRestore(t *testing.T) {
	_, mems, fires := memCluster(t, 2)
	a, b := mems[0], mems[1]

	addr := a.Alloc(prog(), []byte("state"))
	id := a.NewFrame(thread(4), 2, types.PriorityNormal, 0)
	if err := a.Send(wire.Target{Addr: id, Slot: 0}, []byte("half")); err != nil {
		t.Fatal(err)
	}

	frames, objects := a.Snapshot(prog())
	if len(frames) != 1 || len(objects) != 1 {
		t.Fatalf("snapshot: %d frames, %d objects", len(frames), len(objects))
	}

	// Restore on b (as crash recovery would after a died).
	b.Restore(frames, objects)
	testnet.WaitFor(t, "b restored", func() bool {
		return b.ObjectCount() == 1 && b.FrameCount() == 1
	})
	_ = addr

	// Completing the restored frame fires it on b.
	if err := b.Send(wire.Target{Addr: id, Slot: 1}, []byte("done")); err != nil {
		t.Fatal(err)
	}
	<-fires[1].ch
}

func TestSnapshotIsolatesPrograms(t *testing.T) {
	_, mems, _ := memCluster(t, 1)
	m := mems[0]
	p2 := types.MakeProgramID(1, 2)
	m.Alloc(prog(), []byte("p1"))
	m.Alloc(p2, []byte("p2"))
	m.NewFrame(thread(1), 1, types.PriorityNormal, 0)
	m.NewFrame(types.ThreadID{Program: p2, Index: 1}, 1, types.PriorityNormal, 0)

	f1, o1 := m.Snapshot(prog())
	if len(f1) != 1 || len(o1) != 1 {
		t.Fatalf("snapshot(p1): %d frames %d objects", len(f1), len(o1))
	}
}

func TestDropProgram(t *testing.T) {
	_, mems, _ := memCluster(t, 1)
	m := mems[0]
	p2 := types.MakeProgramID(1, 2)
	m.Alloc(prog(), []byte("p1"))
	m.Alloc(p2, []byte("p2"))
	m.NewFrame(thread(1), 1, types.PriorityNormal, 0)
	m.NewFrame(types.ThreadID{Program: p2, Index: 1}, 1, types.PriorityNormal, 0)

	m.DropProgram(prog())
	if m.FrameCount() != 1 || m.ObjectCount() != 1 {
		t.Fatalf("after drop: %d frames %d objects", m.FrameCount(), m.ObjectCount())
	}
}

// TestDropProgramKeepsOtherProgramsReplicas pins program GC to the
// program that ended: a site holding replicas of two programs' objects
// keeps serving the live program from its replica after the other
// program is dropped, and only the dropped program's replica is gone.
func TestDropProgramKeepsOtherProgramsReplicas(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	owner, reader := mems[0], mems[1]
	ended := types.MakeProgramID(1, 2)
	live := owner.Alloc(prog(), []byte("live"))
	dead := owner.Alloc(ended, []byte("dead"))
	for _, addr := range []types.GlobalAddr{live, dead} {
		if _, err := reader.Read(addr); err != nil {
			t.Fatal(err)
		}
	}

	reader.DropProgram(ended)
	before := reader.Stats()
	got, err := reader.Read(live)
	if err != nil {
		t.Fatal(err)
	}
	after := reader.Stats()
	if string(got) != "live" {
		t.Fatalf("read after drop = %q", got)
	}
	if after.ReplicaHits != before.ReplicaHits+1 || after.RemoteReads != before.RemoteReads {
		t.Fatalf("live program's replica lost with the dropped program: %+v -> %+v", before, after)
	}
	s := reader.objectStore.shardFor(dead)
	reader.lock(&s.mu)
	_, cached := s.readCache[dead]
	s.mu.Unlock()
	if cached {
		t.Fatal("dropped program's replica survived DropProgram")
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, mems, fires := memCluster(t, 1)
	m := mems[0]
	m.Alloc(prog(), nil)
	id := m.NewFrame(thread(1), 1, types.PriorityNormal, 0)
	if err := m.Send(wire.Target{Addr: id, Slot: 0}, nil); err != nil {
		t.Fatal(err)
	}
	<-fires[0].ch
	s := m.Stats()
	if s.Allocs != 1 || s.ParamsApplied != 1 || s.FramesFired != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentSendsToManyFrames(t *testing.T) {
	_, mems, fires := memCluster(t, 2)
	a, b := mems[0], mems[1]

	const n = 100
	ids := make([]types.FrameID, n)
	for i := range ids {
		ids[i] = a.NewFrame(thread(uint32(i)), 2, types.PriorityNormal, 0)
	}
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.Send(wire.Target{Addr: ids[i], Slot: 0}, []byte{1}); err != nil {
				t.Errorf("local send %d: %v", i, err)
			}
			if err := b.Send(wire.Target{Addr: ids[i], Slot: 1}, []byte{2}); err != nil {
				t.Errorf("remote send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		<-fires[0].ch
	}
	if a.FrameCount() != 0 {
		t.Fatalf("%d frames left", a.FrameCount())
	}
}

func TestReadReplicationCachesAndInvalidates(t *testing.T) {
	// COMA read replication (paper §4: objects "migrate or even be
	// copied to other sites"): a second read is served locally; a write
	// at the owner invalidates the replica before the writer proceeds.
	_, mems, _ := memCluster(t, 2)
	owner, reader := mems[0], mems[1]

	addr := owner.Alloc(prog(), []byte("v1"))
	if _, err := reader.Read(addr); err != nil {
		t.Fatal(err)
	}
	before := reader.Stats()
	if _, err := reader.Read(addr); err != nil {
		t.Fatal(err)
	}
	after := reader.Stats()
	if after.ReplicaHits != before.ReplicaHits+1 {
		t.Fatalf("second read missed the replica: %+v -> %+v", before, after)
	}
	if after.RemoteReads != before.RemoteReads {
		t.Fatal("second read went remote despite a replica")
	}

	// The owner writes; after Write returns, the replica must be gone
	// and the next read must observe the new value.
	if err := owner.Write(addr, 0, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := reader.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("stale read after invalidation: %q", got)
	}
	if reader.Stats().Invalidates == 0 {
		t.Fatal("invalidation not counted")
	}
}

func TestReadReplicationRemoteWriterInvalidates(t *testing.T) {
	// Writer and replica holder are different non-owner sites.
	_, mems, _ := memCluster(t, 3)
	owner, reader, writer := mems[0], mems[1], mems[2]

	addr := owner.Alloc(prog(), []byte("old"))
	if _, err := reader.Read(addr); err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(addr, 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := reader.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("replica survived a remote write: %q", got)
	}
}

// TestReadHotServedFromReplicas pins what read replication buys on a
// read-hot working set: two remote readers sweep K objects R times while
// the owner writes a few of them every third sweep. After a reader's
// first fault-in of an object every read is served from its replica
// until an invalidation drops it, so its remote fetches stay within K
// plus one re-fault per counted invalidation, however many sweeps run.
// Writes happen between sweeps, so no invalidation can poison a fetch in
// flight (which would cost a re-fault the counter does not see).
func TestReadHotServedFromReplicas(t *testing.T) {
	const k, rounds = 16, 12
	_, mems, _ := memCluster(t, 3)
	owner, readers := mems[0], mems[1:]
	addrs := make([]types.GlobalAddr, k)
	for i := range addrs {
		addrs[i] = owner.Alloc(prog(), []byte{byte(i)})
	}

	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make(chan error, len(readers))
		for _, rd := range readers {
			wg.Add(1)
			go func(rd *Manager) {
				defer wg.Done()
				for _, a := range addrs {
					if _, err := rd.Read(a); err != nil {
						errs <- err
						return
					}
				}
			}(rd)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if r%3 == 2 {
			for j := r % 5; j < k; j += 5 {
				if err := owner.Write(addrs[j], 0, []byte{byte(r)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for i, rd := range readers {
		st := rd.Stats()
		if st.ReplicaHits == 0 {
			t.Fatalf("reader %d: no read was served from a replica", i)
		}
		if st.Invalidates == 0 {
			t.Fatalf("reader %d: the owner's writes invalidated nothing", i)
		}
		if bound := k + st.Invalidates; st.RemoteReads > bound {
			t.Fatalf("reader %d: %d remote reads, want at most %d (%d objects + %d invalidations)",
				i, st.RemoteReads, bound, k, st.Invalidates)
		}
	}
}

func TestMigrationDropsReplicas(t *testing.T) {
	// When ownership migrates, old replicas keyed to the old owner's
	// copyset are invalidated; reads after a post-migration write see
	// the new value.
	_, mems, _ := memCluster(t, 3)
	a, b, c := mems[0], mems[1], mems[2]

	addr := a.Alloc(prog(), []byte("one"))
	if _, err := c.Read(addr); err != nil { // c holds a replica
		t.Fatal(err)
	}
	if _, err := b.Attract(addr); err != nil { // ownership a -> b
		t.Fatal(err)
	}
	if err := b.Write(addr, 0, []byte("two")); err != nil {
		t.Fatal(err)
	}
	// c must observe the write; its pre-migration replica is stale.
	testnet.WaitFor(t, "replica invalidated after migration", func() bool {
		got, err := c.Read(addr)
		return err == nil && string(got) == "two"
	})
}

func TestOwnerLocalWriteInvalidatesBeforeReturn(t *testing.T) {
	_, mems, fires := memCluster(t, 2)
	owner, reader := mems[0], mems[1]
	_ = fires
	addr := owner.Alloc(prog(), []byte("aaaa"))
	if _, err := reader.Read(addr); err != nil {
		t.Fatal(err)
	}
	if err := owner.Write(addr, 2, []byte("ZZ")); err != nil {
		t.Fatal(err)
	}
	got, err := reader.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaZZ" {
		t.Fatalf("read after owner write = %q", got)
	}
}

// ---------------------------------------------------------------------------
// Replica coherence: crash purges, fetch poisoning, evacuation flush,
// heat-driven home migration.

func TestReplicaPurgeOnCrash(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	owner, reader := mems[0], mems[1]

	addr := owner.Alloc(prog(), []byte("warm"))
	if _, err := reader.Read(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Read(addr); err != nil {
		t.Fatal(err)
	}
	if reader.Stats().ReplicaHits == 0 {
		t.Fatal("second read was not served from the replica")
	}

	// The owner is declared crashed: bytes it served may predate the
	// checkpoint recovery restores from, so the replica must go.
	reader.OnSiteCrashed(1, nil)
	if reader.Stats().ReplicaInvals == 0 {
		t.Fatal("crash purge not counted in ReplicaInvals")
	}
	s := reader.objectStore.shardFor(addr)
	reader.lock(&s.mu)
	_, cached := s.readCache[addr]
	s.mu.Unlock()
	if cached {
		t.Fatal("replica survived the owner's crash declaration")
	}
}

func TestReplicaCopysetPurgeOnCrash(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	owner, reader := mems[0], mems[1]

	addr := owner.Alloc(prog(), []byte("tracked"))
	if _, err := reader.Read(addr); err != nil {
		t.Fatal(err)
	}
	s := owner.objectStore.shardFor(addr)
	owner.lock(&s.mu)
	registered := s.copies[addr][2]
	s.mu.Unlock()
	if !registered {
		t.Fatal("reader never entered the owner's copyset")
	}

	// The reader departs; if it lingered in the copyset, every future
	// write would wait out the invalidation deadline for an ack that can
	// never come.
	owner.DropSiteReplicas(2)
	owner.lock(&s.mu)
	_, still := s.copies[addr]
	s.mu.Unlock()
	if still {
		t.Fatal("departed site still in the owner's copyset")
	}
}

func TestReplicaFetchPoisoning(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	reader := mems[1]
	addr := mems[0].Alloc(prog(), []byte("inflight"))

	s := reader.objectStore.shardFor(addr)
	st := &fetchState{done: make(chan struct{})}
	reader.lock(&s.mu)
	s.fetching[addr] = st
	s.mu.Unlock()

	// An invalidation landing mid-fetch must poison the in-flight fetch
	// so its (possibly pre-write) result is never installed as a replica.
	reader.dropReplicas(addr)

	reader.lock(&s.mu)
	poisoned := st.poisoned
	delete(s.fetching, addr)
	s.mu.Unlock()
	close(st.done)
	if !poisoned {
		t.Fatal("in-flight fetch not poisoned by the invalidation")
	}
}

func TestReplicaFlushOnEvacuation(t *testing.T) {
	_, mems, _ := memCluster(t, 3)
	owner, successor, reader := mems[0], mems[1], mems[2]

	addr := owner.Alloc(prog(), []byte("old"))
	if _, err := reader.Read(addr); err != nil {
		t.Fatal(err)
	}

	// Sign-off flushes the copyset with acks, so the reader's replica is
	// gone by the time EvacuateTo returns — not eventually, now.
	if err := owner.EvacuateTo(2); err != nil {
		t.Fatal(err)
	}
	s := reader.objectStore.shardFor(addr)
	reader.lock(&s.mu)
	_, cached := s.readCache[addr]
	s.mu.Unlock()
	if cached {
		t.Fatal("replica survived the owner's evacuation")
	}

	if err := successor.Write(addr, 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := reader.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("read after evacuation + write = %q, want %q", got, "new")
	}
}

func TestHeatMigrationMovesHome(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	home, writer := mems[0], mems[1]

	addr := home.Alloc(prog(), []byte{0})
	// A remote writer that dominates the address's traffic pulls the
	// home to itself once it crosses the heat threshold. Exactly
	// heatMigrateMin writes suffice when nobody else writes at all.
	for i := 0; i < heatMigrateMin; i++ {
		if err := writer.Write(addr, 0, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	testnet.WaitFor(t, "object pushed to the dominant writer", func() bool {
		return writer.ObjectCount() == 1 && home.ObjectCount() == 0
	})
	if home.Stats().HomeMigrations == 0 {
		t.Fatal("home migration not counted")
	}

	// The heat table travels with the object: with no further writes
	// issued, heat at the new owner can only come from the transfer.
	testnet.WaitFor(t, "heat table travelled with the object", func() bool {
		s := writer.objectStore.shardFor(addr)
		writer.lock(&s.mu)
		n := s.heat[addr][2]
		s.mu.Unlock()
		return n > 0
	})

	// Writes land locally at the new owner now, and the old home still
	// observes them through the directory.
	before := writer.Stats().LocalWrites
	if err := writer.Write(addr, 0, []byte("Z")); err != nil {
		t.Fatal(err)
	}
	if writer.Stats().LocalWrites != before+1 {
		t.Fatal("write after migration did not land locally")
	}
	got, err := home.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'Z' {
		t.Fatalf("old home reads %v after migration write", got)
	}
}

// TestFramePathAllocsUntraced pins the allocation count of the dataflow
// step every microthread pays — NewFrame, then one SendFor per parameter
// until the frame fires — on a site without a tracer. Formatting a trace
// detail nobody reads cost three more allocations here (8 instead of 5:
// one string each for the creation, the first parameter and the fire);
// the bound fails if they, or anything else, creep back in.
func TestFramePathAllocsUntraced(t *testing.T) {
	nodes := testnet.NewCluster(t, 1, func(int, *testnet.Node) {})
	m := New(nodes[0].Bus, func(*wire.Microframe) {})
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	allocs := testing.AllocsPerRun(2000, func() {
		id := m.NewFrame(thread(0), 2, types.PriorityNormal, 0)
		for slot := 0; slot < 2; slot++ {
			if err := m.SendFor(prog(), wire.Target{Addr: id, Slot: int32(slot)}, data); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 5 {
		t.Fatalf("NewFrame + 2×SendFor allocates %.0f times, want at most 5", allocs)
	}
}
