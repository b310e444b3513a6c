package sitemgr_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/exec"
	"repro/internal/transport/inproc"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// siteCluster builds daemons (the site manager needs the full stack).
func siteCluster(t *testing.T, n int) []*daemon.Daemon {
	t.Helper()
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)
	ds := make([]*daemon.Daemon, n)
	for i := 0; i < n; i++ {
		ds[i] = daemon.New(daemon.Config{
			PhysAddr:        fmt.Sprintf("site-%d", i),
			Network:         fab,
			WorkModel:       exec.WorkSimulated,
			WorkUnit:        time.Millisecond,
			LoadReportEvery: 20 * time.Millisecond,
			Seed:            int64(i + 1),
		})
		if i == 0 {
			if err := ds[0].Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else if err := ds[i].Join("site-0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ds[i].Kill)
	}
	return ds
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLoadReportsPropagate(t *testing.T) {
	ds := siteCluster(t, 2)
	// Start a long-ish program on site 0 so it reports real load.
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(40, 8, 5)...)
	if err != nil {
		t.Fatal(err)
	}
	// Site 1 must observe nonzero statistics about site 0 while the
	// program runs (load or queue length).
	waitFor(t, "gossiped statistics visible", func() bool {
		info, ok := ds[1].CM.Lookup(ds[0].Self())
		return ok && (info.Load > 0 || info.QueueLen > 0 || info.Programs > 0)
	})
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("program did not terminate")
	}
}

func TestStatusSnapshot(t *testing.T) {
	ds := siteCluster(t, 1)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(10, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("no result")
	}
	st := ds[0].Site.Status()
	if st.Executed == 0 {
		// A single-site run routes everything through direct manager
		// calls, so bus counters may legitimately be zero — but
		// microthreads must have executed.
		t.Fatalf("implausible status: %+v", st)
	}
	if st.Memory.FramesFired == 0 {
		t.Fatal("status lost memory stats")
	}
	if ds[0].Site.Uptime() <= 0 {
		t.Fatal("no uptime")
	}
}

func TestPickSuccessorPrefersIdle(t *testing.T) {
	ds := siteCluster(t, 3)
	waitFor(t, "cluster complete", func() bool { return ds[0].CM.Size() == 3 })

	// Report site 1 as busy, site 2 as idle. Their statistics loops stop
	// first: the 20 ms ticker would overwrite a load reported by hand
	// with the measured one (idle on both) before PickSuccessor reads it.
	ds[1].Site.Close()
	ds[2].Site.Close()
	ds[1].Gossip.Tick(0.9, 5, 1)
	ds[2].Gossip.Tick(0.0, 0, 0)
	waitFor(t, "loads visible", func() bool {
		a, ok1 := ds[0].CM.Lookup(ds[1].Self())
		b, ok2 := ds[0].CM.Lookup(ds[2].Self())
		return ok1 && ok2 && a.Load > 0.8 && b.Load < 0.1
	})

	if got := ds[0].Site.PickSuccessor(); got != ds[2].Self() {
		t.Fatalf("PickSuccessor = %v, want the idle site %v", got, ds[2].Self())
	}
}

func TestSignOffRelocatesQueuedFrames(t *testing.T) {
	ds := siteCluster(t, 2)
	waitFor(t, "cluster complete", func() bool { return ds[1].CM.Size() == 2 })

	// Queue frames directly on site 1's scheduler (a program the other
	// site knows how to resolve is unnecessary — we only check motion).
	prog := ds[1].PM.NewProgram()
	ds[1].PM.Register(wire.ProgramRegister{Program: prog, CodeHome: ds[1].Self(), Frontend: ds[1].Self()})
	for i := 0; i < 3; i++ {
		f := wire.NewMicroframe(
			types.GlobalAddr{Home: ds[1].Self(), Local: uint64(i + 1)},
			types.ThreadID{Program: prog, Index: 0}, 0)
		ds[1].Sched.Enqueue(f)
	}
	// Also one waiting frame and one object in the attraction memory.
	ds[1].Mem.Alloc(prog, []byte("obj"))
	ds[1].Mem.NewFrame(types.ThreadID{Program: prog, Index: 0}, 1, types.PriorityNormal, 0)

	if err := ds[1].SignOff(); err != nil {
		t.Fatalf("sign-off: %v", err)
	}

	// Everything must now live on site 0. (The pushed executable frames
	// can't resolve code — the func name is unregistered — but they
	// must arrive; check memory first, which is deterministic.)
	waitFor(t, "memory relocated", func() bool {
		return ds[0].Mem.ObjectCount() == 1 && ds[0].Mem.FrameCount() == 1
	})
	waitFor(t, "site removed from list", func() bool {
		_, known := ds[0].CM.Lookup(ds[1].Self())
		return !known
	})
}

func TestLastSiteSignOffIsClean(t *testing.T) {
	ds := siteCluster(t, 1)
	if err := ds[0].SignOff(); err != nil {
		t.Fatalf("single-site sign-off: %v", err)
	}
}

// TestQueryStatusDepartedSite exercises the gap a monitor lives in: a
// site is discovered, then vanishes before the status query reaches it.
// The query must come back with an error (timeout/unreachable), not hang
// and not panic.
func TestQueryStatusDepartedSite(t *testing.T) {
	ds := siteCluster(t, 2)
	waitFor(t, "cluster complete", func() bool { return ds[0].CM.Size() == 2 })

	victim := ds[1].Self()
	ds[1].Kill() // abrupt: no goodbye broadcast, roster still lists it

	start := time.Now()
	_, err := ds[0].Site.QueryStatus(victim)
	if err == nil {
		t.Fatal("QueryStatus against a dead site succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("QueryStatus took %v; the 3s request timeout did not bound it", elapsed)
	}
}

// metricsCluster is siteCluster with every daemon's registry enabled.
func metricsCluster(t *testing.T, n int) []*daemon.Daemon {
	t.Helper()
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)
	ds := make([]*daemon.Daemon, n)
	for i := 0; i < n; i++ {
		ds[i] = daemon.New(daemon.Config{
			PhysAddr:        fmt.Sprintf("site-%d", i),
			Network:         fab,
			WorkModel:       exec.WorkSimulated,
			WorkUnit:        time.Millisecond,
			LoadReportEvery: 20 * time.Millisecond,
			Metrics:         true,
			Seed:            int64(i + 1),
		})
		if i == 0 {
			if err := ds[0].Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else if err := ds[i].Join("site-0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ds[i].Kill)
	}
	return ds
}

// TestMetricsAggregationThreeSites is the tentpole's acceptance check:
// query every member of a 3-site cluster over the bus and aggregate —
// every site must answer with a non-empty snapshot, and the merged view
// must show cluster-wide message traffic and executed microthreads.
func TestMetricsAggregationThreeSites(t *testing.T) {
	ds := metricsCluster(t, 3)
	waitFor(t, "cluster complete", func() bool { return ds[0].CM.Size() == 3 })

	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(60, 10, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("program did not terminate")
	}

	totals := map[string]int64{}
	for _, d := range ds {
		mr, qerr := ds[0].Site.QueryMetrics(d.Self())
		if qerr != nil {
			t.Fatalf("QueryMetrics(%v): %v", d.Self(), qerr)
		}
		if mr.Site != d.Self() {
			t.Fatalf("reply from %v carries site %v", d.Self(), mr.Site)
		}
		if len(mr.Samples) == 0 {
			t.Fatalf("site %v answered an empty snapshot", d.Self())
		}
		perSite := map[string]int64{}
		for _, s := range mr.Samples {
			perSite[s.Name] += s.Value
			totals[s.Name] += s.Value
		}
		// Every member — bootstrapper and joiners alike — has at least
		// sent bus traffic (sign-on, gossip digests).
		if perSite["bus.sent_msgs"] == 0 {
			t.Fatalf("site %v reports no bus traffic: %v", d.Self(), perSite["bus.sent_msgs"])
		}
	}
	for _, name := range []string{"bus.sent_msgs", "bus.recv_msgs", "exec.executed",
		"sched.enqueued", "mem.frames_fired"} {
		if totals[name] <= 0 {
			t.Fatalf("aggregated %s = %d, want > 0", name, totals[name])
		}
	}
}
