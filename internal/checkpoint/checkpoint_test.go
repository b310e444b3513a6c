package checkpoint

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/memory"
	"repro/internal/mthread"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/testnet"
	"repro/internal/transport/inproc"
	"repro/internal/types"
	"repro/internal/wire"
)

// ckptNode is a site with the full maintenance stack the crash manager
// needs: memory, scheduler, program manager, checkpoint manager.
type ckptNode struct {
	*testnet.Node
	mem   *memory.Manager
	sched *sched.Manager
	pm    *program.Manager
	ckpt  *Manager
}

type noopResolver struct{}

func (noopResolver) Resolve(types.ThreadID) (mthread.Func, error) {
	return func(mthread.Context) error { return nil }, nil
}

func ckptCluster(t *testing.T, n int, cfg Config) []*ckptNode {
	t.Helper()
	out := make([]*ckptNode, n)
	testnet.NewCluster(t, n, func(i int, node *testnet.Node) {
		cn := &ckptNode{Node: node}
		cn.pm = program.New(node.Bus)
		cn.sched = sched.New(node.Bus, node.CM, noopResolver{}, sched.Config{})
		cn.mem = memory.New(node.Bus, cn.sched.Enqueue)
		cn.sched.SetAdopter(cn.mem)
		cn.ckpt = New(node.Bus, node.CM, cn.mem, cn.sched, cn.pm, node.Gossip.Accuse, cfg)
		cn.sched.Start()
		cn.ckpt.Start()
		t.Cleanup(cn.ckpt.Close)
		t.Cleanup(cn.sched.Close)
		out[i] = cn
	})
	return out
}

func registerProg(t *testing.T, nodes []*ckptNode, origin int) types.ProgramID {
	t.Helper()
	prog := nodes[origin].pm.NewProgram()
	nodes[origin].pm.Register(wire.ProgramRegister{
		Program:  prog,
		CodeHome: nodes[origin].Bus.Self(),
		Frontend: nodes[origin].Bus.Self(),
	})
	for _, n := range nodes {
		n := n
		testnet.WaitFor(t, "program known", func() bool { return n.pm.Known(prog) })
	}
	return prog
}

func TestCheckpointReplicates(t *testing.T) {
	nodes := ckptCluster(t, 2, Config{})
	prog := registerProg(t, nodes, 0)

	// State on site 0: one waiting frame, one object.
	nodes[0].mem.Alloc(prog, []byte("obj"))
	nodes[0].mem.NewFrame(types.ThreadID{Program: prog, Index: 0}, 2, types.PriorityNormal, 0)

	nodes[0].ckpt.CheckpointNow()
	testnet.WaitFor(t, "checkpoint stored at peer", func() bool {
		return nodes[1].ckpt.StoredFor(prog, nodes[0].Bus.Self())
	})
	if nodes[0].ckpt.Taken() != 1 {
		t.Fatalf("Taken = %d", nodes[0].ckpt.Taken())
	}
}

func TestCheckpointSkipsEmptyPrograms(t *testing.T) {
	nodes := ckptCluster(t, 2, Config{})
	registerProg(t, nodes, 0)
	nodes[0].ckpt.CheckpointNow()
	time.Sleep(50 * time.Millisecond)
	if nodes[0].ckpt.Taken() != 0 {
		t.Fatal("empty program checkpointed")
	}
}

func TestSingleSiteHasNowhereToCheckpoint(t *testing.T) {
	nodes := ckptCluster(t, 1, Config{})
	prog := registerProg(t, nodes, 0)
	nodes[0].mem.Alloc(prog, []byte("x"))
	nodes[0].ckpt.CheckpointNow() // must not panic or block
	if nodes[0].ckpt.Taken() != 0 {
		t.Fatal("single-site cluster claims to have replicated a checkpoint")
	}
}

func TestHeartbeatDeclaresCrash(t *testing.T) {
	nodes := ckptCluster(t, 3, Config{
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: 60 * time.Millisecond,
		MissLimit:        2,
	})
	dead := nodes[2]
	deadID := dead.Bus.Self()

	// Kill site 2 abruptly: its links drop, pings start failing.
	dead.Bus.Close()
	dead.Net.Close()

	for i, n := range nodes[:2] {
		n := n
		testnet.WaitFor(t, "crash detected", func() bool {
			_, known := n.CM.Lookup(deadID)
			return !known
		})
		_ = i
	}
}

// A heartbeat verdict is authoritative only from a site that probes
// every peer: with at most ringProbes peers the dead site leaves the
// roster at once; with more, the site watches only its ring successors
// and its verdict is an accusation for gossip to confirm, the roster
// untouched.
func TestVerdictFollowsProbeSet(t *testing.T) {
	for _, n := range []int{ringProbes + 1, ringProbes + 2} {
		nodes := ckptCluster(t, n, Config{})
		judge, dead := nodes[0], nodes[n-1].Bus.Self()
		var accused []types.SiteID
		judge.ckpt.accuse = func(id types.SiteID) { accused = append(accused, id) }

		everyPeer := len(judge.ckpt.probeSet(judge.Bus.Self())) == n-1
		judge.ckpt.declareCrash(dead)
		_, known := judge.CM.Lookup(dead)
		switch {
		case everyPeer && (known || len(accused) != 0):
			t.Fatalf("%d sites, every peer probed: known=%v accused=%v, want removal", n, known, accused)
		case !everyPeer && (!known || len(accused) != 1 || accused[0] != dead):
			t.Fatalf("%d sites, ring probed: known=%v accused=%v, want an accusation of %v", n, known, accused, dead)
		}
		if want := n <= ringProbes+1; everyPeer != want {
			t.Fatalf("%d sites: probes every peer = %v, want %v", n, everyPeer, want)
		}
	}
}

func TestRecoveryRestoresState(t *testing.T) {
	nodes := ckptCluster(t, 3, Config{})
	prog := registerProg(t, nodes, 0)

	// Site 1 holds a half-filled frame and an object; checkpoint goes
	// to the next site in id order (site 2).
	victim := nodes[1]
	addr := victim.mem.Alloc(prog, []byte("precious"))
	fid := victim.mem.NewFrame(types.ThreadID{Program: prog, Index: 0}, 2, types.PriorityNormal, 0)
	if err := victim.mem.Send(wire.Target{Addr: fid, Slot: 0}, []byte("p0")); err != nil {
		t.Fatal(err)
	}
	victim.ckpt.CheckpointNow()

	holder := nodes[2]
	testnet.WaitFor(t, "checkpoint replicated", func() bool {
		return holder.ckpt.StoredFor(prog, victim.Bus.Self())
	})

	// Declare the victim crashed (as the heartbeat would).
	victimID := victim.Bus.Self()
	victim.Bus.Close()
	victim.Net.Close()
	nodes[0].CM.Remove(victimID, true)
	holder.CM.Remove(victimID, true)

	testnet.WaitFor(t, "state recovered", func() bool {
		return holder.mem.FrameCount() == 1 && holder.mem.ObjectCount() == 1
	})
	if holder.ckpt.Recovered() != 1 {
		t.Fatalf("Recovered = %d", holder.ckpt.Recovered())
	}

	// The recovered object must be readable from site 0 again.
	got, err := nodes[0].mem.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "precious" {
		t.Fatalf("recovered object = %q", got)
	}

	// Completing the recovered frame fires it on the holder.
	if err := nodes[0].mem.Send(wire.Target{Addr: fid, Slot: 1}, []byte("p1")); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "recovered frame fired", func() bool {
		return holder.sched.Stats().Enqueued == 1
	})
}

func TestCleanSignOffDropsCheckpoints(t *testing.T) {
	nodes := ckptCluster(t, 2, Config{})
	prog := registerProg(t, nodes, 0)
	nodes[0].mem.Alloc(prog, []byte("x"))
	nodes[0].ckpt.CheckpointNow()
	testnet.WaitFor(t, "replicated", func() bool {
		return nodes[1].ckpt.StoredFor(prog, nodes[0].Bus.Self())
	})
	// A clean sign-off relocated everything; stale checkpoints go.
	nodes[1].CM.Remove(nodes[0].Bus.Self(), false)
	if nodes[1].ckpt.StoredFor(prog, nodes[0].Bus.Self()) {
		t.Fatal("checkpoint survived clean sign-off")
	}
}

func TestDropProgramDiscardsCheckpoints(t *testing.T) {
	nodes := ckptCluster(t, 2, Config{})
	prog := registerProg(t, nodes, 0)
	nodes[0].mem.Alloc(prog, []byte("x"))
	nodes[0].ckpt.CheckpointNow()
	testnet.WaitFor(t, "replicated", func() bool {
		return nodes[1].ckpt.StoredFor(prog, nodes[0].Bus.Self())
	})
	nodes[1].ckpt.DropProgram(prog)
	if nodes[1].ckpt.StoredFor(prog, nodes[0].Bus.Self()) {
		t.Fatal("checkpoint survived DropProgram")
	}
}

func TestNewerEpochWins(t *testing.T) {
	nodes := ckptCluster(t, 2, Config{})
	prog := registerProg(t, nodes, 0)
	nodes[0].mem.Alloc(prog, []byte("v1"))
	nodes[0].ckpt.CheckpointNow()
	testnet.WaitFor(t, "epoch 1", func() bool {
		return nodes[1].ckpt.StoredFor(prog, nodes[0].Bus.Self())
	})
	// Second checkpoint with more state.
	nodes[0].mem.Alloc(prog, []byte("v2"))
	nodes[0].ckpt.CheckpointNow()
	testnet.WaitFor(t, "epoch 2 replaces", func() bool {
		nodes[1].ckpt.mu.Lock()
		defer nodes[1].ckpt.mu.Unlock()
		cp := nodes[1].ckpt.store[storeKey{prog, nodes[0].Bus.Self()}]
		return cp != nil && len(cp.objects) == 2
	})
}

func TestReliableCoreViaCluster(t *testing.T) {
	// Build the cluster by hand so the reliable flag is present at
	// sign-on: node 0 bootstraps unreliable, node 1 joins unreliable,
	// node 2 joins reliable.
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)

	mk := func(name string, reliable bool) *ckptNode {
		cn := &ckptNode{}
		cfgC := cluster.Config{PhysAddr: name, Reliable: reliable}
		node := testnet.NewNode(t, fab, name, cfgC)
		cn.Node = node
		cn.pm = program.New(node.Bus)
		cn.sched = sched.New(node.Bus, node.CM, noopResolver{}, sched.Config{})
		cn.mem = memory.New(node.Bus, cn.sched.Enqueue)
		cn.sched.SetAdopter(cn.mem)
		cn.ckpt = New(node.Bus, node.CM, cn.mem, cn.sched, cn.pm, node.Gossip.Accuse, Config{})
		cn.sched.Start()
		t.Cleanup(cn.ckpt.Close)
		t.Cleanup(cn.sched.Close)
		return cn
	}

	boot := mk("site-0", false)
	boot.Bootstrap()
	peer := mk("site-1", false)
	if err := peer.Join("site-0"); err != nil {
		t.Fatal(err)
	}
	core := mk("site-2", true)
	if err := core.Join("site-0"); err != nil {
		t.Fatal(err)
	}
	nodes := []*ckptNode{boot, peer, core}
	testnet.WaitFor(t, "full lists", func() bool {
		for _, n := range nodes {
			if n.CM.Size() != 3 {
				return false
			}
		}
		return true
	})

	prog := registerProg(t, nodes, 0)
	// State on the two unsafe sites.
	boot.mem.Alloc(prog, []byte("a"))
	peer.mem.Alloc(prog, []byte("b"))
	boot.ckpt.CheckpointNow()
	peer.ckpt.CheckpointNow()

	coreID := core.Bus.Self()
	testnet.WaitFor(t, "checkpoints on the reliable core", func() bool {
		return core.ckpt.StoredFor(prog, boot.Bus.Self()) &&
			core.ckpt.StoredFor(prog, peer.Bus.Self())
	})
	// The unsafe peer must hold neither.
	if peer.ckpt.StoredFor(prog, boot.Bus.Self()) {
		t.Fatal("checkpoint landed on an unsafe site despite a reliable core")
	}
	_ = coreID
}
