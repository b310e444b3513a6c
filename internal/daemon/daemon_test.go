package daemon_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/daemon"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/mthread"
	"repro/internal/security"
	"repro/internal/transport/inproc"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// testCluster spins up n daemons on a fresh fabric. mutate, if non-nil,
// can adjust each site's config before construction.
func testCluster(t testing.TB, n int, mutate func(i int, cfg *daemon.Config)) (*inproc.Fabric, []*daemon.Daemon) {
	t.Helper()
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)

	ds := make([]*daemon.Daemon, n)
	for i := 0; i < n; i++ {
		cfg := daemon.Config{
			PhysAddr:  fmt.Sprintf("site-%d", i),
			Network:   fab,
			WorkModel: exec.WorkSimulated,
			WorkUnit:  time.Millisecond,
			Seed:      int64(i + 1),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		ds[i] = daemon.New(cfg)
		if i == 0 {
			if err := ds[0].Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else if err := ds[i].Join("site-0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ds[i].Kill)
	}
	return fab, ds
}

func checkPrimesResult(t testing.TB, raw []byte, p int) {
	t.Helper()
	primes := workloads.ParsePrimesResult(raw)
	if len(primes) != p {
		t.Fatalf("got %d primes, want %d", len(primes), p)
	}
	want := workloads.NthPrime(p)
	if primes[p-1] != want {
		t.Fatalf("p-th prime = %d, want %d", primes[p-1], want)
	}
	for i := 1; i < len(primes); i++ {
		if primes[i] <= primes[i-1] {
			t.Fatalf("primes out of order at %d: %v", i, primes[i-1:i+1])
		}
	}
}

func TestSingleSitePrimes(t *testing.T) {
	_, ds := testCluster(t, 1, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(20, 5, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 30*time.Second)
	if !ok {
		t.Fatal("program did not terminate")
	}
	checkPrimesResult(t, raw, 20)
}

func TestFourSitePrimesDistributes(t *testing.T) {
	_, ds := testCluster(t, 4, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(60, 12, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 60*time.Second)
	if !ok {
		t.Fatal("program did not terminate")
	}
	checkPrimesResult(t, raw, 60)

	// The decentralized scheduler must have spread real work: every
	// site should have executed at least one microthread.
	for i, d := range ds {
		if d.Exec.Executed() == 0 {
			t.Errorf("site %d executed nothing", i)
		}
	}
}

func TestResultDeliveredOnRemoteTermination(t *testing.T) {
	// The round that finds the last prime usually runs on a remote
	// site; the submitter must still observe the result.
	_, ds := testCluster(t, 3, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(30, 10, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		raw, ok := d.WaitResult(prog, 60*time.Second)
		if !ok {
			t.Fatalf("site %d did not observe termination", i)
		}
		if i == 0 {
			checkPrimesResult(t, raw, 30)
		}
	}
}

func TestFibTwoSites(t *testing.T) {
	_, ds := testCluster(t, 2, nil)
	prog, err := ds[0].Submit(workloads.FibApp(), workloads.FibArgs(12, 0.2)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 60*time.Second)
	if !ok {
		t.Fatal("fib did not terminate")
	}
	if got := mthread.ParseU64(raw); got != 144 {
		t.Fatalf("fib(12) = %d, want 144", got)
	}
}

func TestMatMulThreeSites(t *testing.T) {
	_, ds := testCluster(t, 3, nil)
	n, grid := 24, 3
	prog, err := ds[0].Submit(workloads.MatMulApp(), workloads.MatMulArgs(n, grid, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 60*time.Second)
	if !ok {
		t.Fatal("matmul did not terminate")
	}
	want := workloads.SeqMatMul(n, grid, 0, func(float64) {})
	got := mthread.ParseF64(raw)
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("checksum = %v, want %v", got, want)
	}
}

func TestMonteCarloMatchesSequential(t *testing.T) {
	_, ds := testCluster(t, 2, nil)
	prog, err := ds[0].Submit(workloads.PiApp(), workloads.PiArgs(8, 2000, 0.5, 42)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 60*time.Second)
	if !ok {
		t.Fatal("pi did not terminate")
	}
	want := workloads.SeqPi(8, 2000, 0, 42, func(float64) {})
	if got := mthread.ParseF64(raw); got != want {
		t.Fatalf("pi = %v, want %v (deterministic sampling must agree)", got, want)
	}
}

func TestPipeline(t *testing.T) {
	_, ds := testCluster(t, 2, nil)
	items, stages := 6, 5
	prog, err := ds[0].Submit(workloads.PipeApp(), workloads.PipeArgs(items, stages, 0.5)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 60*time.Second)
	if !ok {
		t.Fatal("pipeline did not terminate")
	}
	want := workloads.SeqPipeline(items, stages, 0, func(float64) {})
	if got := mthread.ParseU64(raw); got != want {
		t.Fatalf("pipeline checksum = %d, want %d", got, want)
	}
}

func TestMultiProgram(t *testing.T) {
	// "Multiple users can run programs uninfluenced" (goals 10/11).
	_, ds := testCluster(t, 3, nil)
	p1, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(25, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ds[1].Submit(workloads.FibApp(), workloads.FibArgs(10, 0.3)...)
	if err != nil {
		t.Fatal(err)
	}

	raw1, ok := ds[0].WaitResult(p1, 60*time.Second)
	if !ok {
		t.Fatal("primes did not terminate")
	}
	checkPrimesResult(t, raw1, 25)

	raw2, ok := ds[1].WaitResult(p2, 60*time.Second)
	if !ok {
		t.Fatal("fib did not terminate")
	}
	if got := mthread.ParseU64(raw2); got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestDynamicJoinMidRun(t *testing.T) {
	// Paper §3.4: "new sites can be added at runtime, which will
	// quickly get work and then assist executing the running programs."
	fab, ds := testCluster(t, 2, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(80, 16, 3)...)
	if err != nil {
		t.Fatal(err)
	}

	// Let the program get going, then add two more sites.
	time.Sleep(100 * time.Millisecond)
	late := make([]*daemon.Daemon, 2)
	for i := range late {
		cfg := daemon.Config{
			PhysAddr:  fmt.Sprintf("late-%d", i),
			Network:   fab,
			WorkModel: exec.WorkSimulated,
			WorkUnit:  time.Millisecond,
			Seed:      int64(100 + i),
		}
		late[i] = daemon.New(cfg)
		if err := late[i].Join("site-0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(late[i].Kill)
	}

	raw, ok := ds[0].WaitResult(prog, 90*time.Second)
	if !ok {
		t.Fatal("program did not terminate")
	}
	checkPrimesResult(t, raw, 80)

	// The latecomers must have been drafted into the computation.
	helped := late[0].Exec.Executed() + late[1].Exec.Executed()
	if helped == 0 {
		t.Error("late-joining sites never received work")
	}
}

func TestSignOffMidRun(t *testing.T) {
	// Paper §3.4: a site leaves, relocating microframes and memory;
	// the program finishes correctly without it.
	_, ds := testCluster(t, 3, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(60, 12, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := ds[2].SignOff(); err != nil {
		t.Fatalf("sign-off: %v", err)
	}

	raw, ok := ds[0].WaitResult(prog, 90*time.Second)
	if !ok {
		t.Fatal("program did not terminate after sign-off")
	}
	checkPrimesResult(t, raw, 60)
}

// TestDepartedPeerForgotten checks that a peer's departure — signed
// off or declared crashed — takes its connection and send state out of
// the network manager, and that a site rejoining at the same address is
// dialed afresh.
func TestDepartedPeerForgotten(t *testing.T) {
	ping := func(from *daemon.Daemon, to types.SiteID) error {
		_, err := from.Bus.Request(to, types.MgrCluster, types.MgrCluster, &wire.Ping{Nonce: 1}, 5*time.Second)
		return err
	}
	for _, crash := range []bool{false, true} {
		fab, ds := testCluster(t, 3, func(i int, cfg *daemon.Config) {
			cfg.Checkpoint = checkpoint.Config{
				HeartbeatEvery:   40 * time.Millisecond,
				HeartbeatTimeout: 100 * time.Millisecond,
				MissLimit:        3,
			}
		})
		if err := ping(ds[0], ds[2].Self()); err != nil {
			t.Fatal(err)
		}
		if !ds[0].Net.HasPeer("site-2") {
			t.Fatal("no per-peer state after talking to site-2")
		}

		if crash {
			fab.KillSite("site-2")
			ds[2].Kill()
		} else if err := ds[2].SignOff(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for ds[0].Net.HasPeer("site-2") {
			if time.Now().After(deadline) {
				t.Fatalf("crash=%v: site-0 still holds state for the departed site-2", crash)
			}
			time.Sleep(5 * time.Millisecond)
		}

		again := daemon.New(daemon.Config{
			PhysAddr:  "site-2",
			Network:   fab,
			WorkModel: exec.WorkSimulated,
			WorkUnit:  time.Millisecond,
			Seed:      9,
		})
		if err := again.Join("site-0"); err != nil {
			t.Fatalf("crash=%v: rejoin at the vacated address: %v", crash, err)
		}
		t.Cleanup(again.Kill)
		if err := ping(ds[0], again.Self()); err != nil {
			t.Fatalf("crash=%v: ping to the rejoined site: %v", crash, err)
		}
	}
}

// With no statistics tick ever firing, no gossip round runs: the sign-on
// contact's immediate push of each newcomer's row is the only thing that
// can complete every roster.
func TestRostersConvergeWithoutStatsTicks(t *testing.T) {
	_, ds := testCluster(t, 4, func(i int, cfg *daemon.Config) {
		cfg.LoadReportEvery = time.Hour
	})
	waitFullRosters(t, ds)
}

// waitFullRosters fails the test unless every daemon's roster lists all
// of ds within 5 s.
func waitFullRosters(t *testing.T, ds []*daemon.Daemon) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, d := range ds {
		for d.CM.Size() != len(ds) {
			if time.Now().After(deadline) {
				t.Fatalf("site %v knows %d of %d sites", d.Self(), d.CM.Size(), len(ds))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// In a cluster small enough that every site probes every peer, a
// heartbeat verdict removes a killed site from every roster within
// MissLimit probe periods — not after the gossip layer's deadAfter
// rounds (6 s at the default 100 ms tick), which is all an accusation
// would buy.
func TestKilledSiteLeavesRostersByHeartbeat(t *testing.T) {
	hb := checkpoint.Config{
		HeartbeatEvery:   50 * time.Millisecond,
		HeartbeatTimeout: 100 * time.Millisecond,
		MissLimit:        3,
	}
	fab, ds := testCluster(t, 4, func(i int, cfg *daemon.Config) { cfg.Checkpoint = hb })
	waitFullRosters(t, ds)
	dead := ds[3].Self()
	start := time.Now()
	fab.KillSite("site-3")
	ds[3].Kill()

	bound := time.Duration(hb.MissLimit)*(hb.HeartbeatEvery+hb.HeartbeatTimeout) + 2*time.Second
	for _, d := range ds[:3] {
		for {
			if _, known := d.CM.Lookup(dead); !known {
				break
			}
			if time.Since(start) > bound {
				t.Fatalf("site %v still lists the killed site after %v", d.Self(), bound)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestCrashRecovery(t *testing.T) {
	// Paper §2.2/§6: a crashed site's state is recovered from
	// checkpoints; the program still completes with a correct result.
	fab, ds := testCluster(t, 3, func(i int, cfg *daemon.Config) {
		cfg.Checkpoint = checkpoint.Config{
			Interval:         40 * time.Millisecond,
			HeartbeatEvery:   40 * time.Millisecond,
			HeartbeatTimeout: 100 * time.Millisecond,
			MissLimit:        3,
		}
	})
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(60, 12, 4)...)
	if err != nil {
		t.Fatal(err)
	}

	// Let work spread and checkpoints happen, then crash site 2 hard.
	time.Sleep(300 * time.Millisecond)
	fab.KillSite("site-2")
	ds[2].Kill()

	raw, ok := ds[0].WaitResult(prog, 120*time.Second)
	if !ok {
		t.Fatal("program did not survive the crash")
	}
	checkPrimesResult(t, raw, 60)
}

func TestHeterogeneousPlatformsCompileOnTheFly(t *testing.T) {
	// Paper §3.4: sites of a platform unknown at submission receive
	// source and compile it on the fly, then publish the binary.
	_, ds := testCluster(t, 3, func(i int, cfg *daemon.Config) {
		cfg.Platform = types.PlatformID(i + 1) // all distinct
		cfg.CompileCost = time.Millisecond
	})
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(40, 10, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 90*time.Second)
	if !ok {
		t.Fatal("program did not terminate")
	}
	checkPrimesResult(t, raw, 40)

	compiles := uint64(0)
	for _, d := range ds[1:] {
		compiles += d.Code.Stats().Compiles
	}
	if compiles == 0 {
		t.Error("no on-the-fly compilation happened on foreign platforms")
	}
}

func TestEncryptedCluster(t *testing.T) {
	// Paper §4, security manager: all traffic AES-sealed; the cluster
	// still computes correctly.
	mk := func() security.Layer {
		l, err := security.NewAESGCM("cluster-secret")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	_, ds := testCluster(t, 2, func(i int, cfg *daemon.Config) { cfg.Security = mk() })
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(25, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 60*time.Second)
	if !ok {
		t.Fatal("encrypted cluster did not terminate")
	}
	checkPrimesResult(t, raw, 25)
}

func TestFrontendOutputReachesSubmitter(t *testing.T) {
	_, ds := testCluster(t, 2, nil)
	app := workloads.PrimesApp()
	// Subscribe before submitting so no output is missed.
	prog := ds[0].PM.NewProgram()
	_ = prog // Submit creates its own id; subscribe after instead.
	progID, err := ds[0].Submit(app, workloads.PrimesArgs(15, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	ch := ds[0].SubscribeOutput(progID)
	if _, ok := ds[0].WaitResult(progID, 60*time.Second); !ok {
		t.Fatal("did not terminate")
	}
	// At least the final "found N primes" line must have arrived (the
	// subscription raced program start but not the final round).
	select {
	case line, open := <-ch:
		if !open {
			t.Fatal("no output delivered before close")
		}
		if line == "" {
			t.Fatal("empty output line")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no frontend output")
	}
}

func TestProgramGCAfterTermination(t *testing.T) {
	_, ds := testCluster(t, 2, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(20, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("did not terminate")
	}
	// GC propagates asynchronously with termination broadcast.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		clean := true
		for _, d := range ds {
			if d.Mem.FrameCount() != 0 || d.Sched.QueueLen() != 0 {
				clean = false
			}
		}
		if clean {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, d := range ds {
		t.Logf("site %d: frames=%d queue=%d", i, d.Mem.FrameCount(), d.Sched.QueueLen())
	}
	t.Fatal("program state not garbage-collected")
}

func TestStatusReflectsActivity(t *testing.T) {
	_, ds := testCluster(t, 1, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(10, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("did not terminate")
	}
	st := ds[0].Status()
	if st.Executed == 0 {
		t.Error("status shows no executions")
	}
	if st.Site.ID != ds[0].Self() {
		t.Error("status site mismatch")
	}
	if st.String() == "" {
		t.Error("empty status string")
	}
}
