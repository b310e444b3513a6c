package daemon_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/daemon"
	"repro/internal/metrics"
	"repro/internal/mthread"
	"repro/internal/testnet"
	tracepkg "repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Tests for the paper's proposed extensions: accounting (§2.2/§6),
// remote status queries (§4 site manager), and frontend input (§4 I/O
// manager).

func TestAccountingMetersARun(t *testing.T) {
	_, ds := testCluster(t, 3, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(40, 10, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("did not terminate")
	}

	total, perSite := ds[0].Acct.ClusterUsage(prog)
	if total.Executed == 0 {
		t.Fatal("no executions accounted")
	}
	// Every candidate test spends 2 Work units; rounds and start spend 0.
	// Pipelining overshoots at most a couple of batches past the find.
	if total.WorkUnits < 2*100 {
		t.Fatalf("WorkUnits = %v, implausibly low", total.WorkUnits)
	}
	if total.BusyNanos <= 0 {
		t.Fatal("no busy time accounted")
	}
	if total.MsgsSent == 0 || total.BytesMoved == 0 {
		t.Fatal("no parameter traffic accounted")
	}
	if len(perSite) != 3 {
		t.Fatalf("perSite = %d entries", len(perSite))
	}
	// The executed sum across sites must equal the total.
	var sum uint64
	for _, u := range perSite {
		sum += u.Executed
	}
	if sum != total.Executed {
		t.Fatalf("per-site sum %d != total %d", sum, total.Executed)
	}

	// And an invoice prices it.
	bill := accounting.Invoice(total, accounting.Rates{PerWorkUnit: 0.01, PerBusySecond: 1})
	if bill <= 0 {
		t.Fatal("zero invoice for real work")
	}
}

func TestRemoteStatusQuery(t *testing.T) {
	_, ds := testCluster(t, 2, nil)
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(20, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("did not terminate")
	}
	// The result can reach site 0 before site 1's last microthread is
	// counted; compare only once site 1 has gone quiet.
	waitExecQuiet(t, ds[1])

	sr, err := ds[0].Site.QueryStatus(ds[1].Self())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Site != ds[1].Self() {
		t.Fatalf("status from wrong site: %v", sr.Site)
	}
	if sr.UptimeNs <= 0 {
		t.Fatal("no uptime in remote status")
	}
	if sr.Executed != ds[1].Exec.Executed() {
		t.Fatalf("remote executed %d != local truth %d", sr.Executed, ds[1].Exec.Executed())
	}
}

// waitExecQuiet waits until d runs no microthread and its executed count
// has held still for 50 ms.
func waitExecQuiet(t *testing.T, d *daemon.Daemon) {
	t.Helper()
	last, since := d.Exec.Executed(), time.Now()
	testnet.WaitFor(t, "an idle processing manager", func() bool {
		n := d.Exec.Executed()
		if d.Exec.Running() != 0 || n != last {
			last, since = n, time.Now()
			return false
		}
		return time.Since(since) >= 50*time.Millisecond
	})
}

// TestStatsAgreeWithRegistry runs a metrics-on 2-site cluster through
// remote object reads and primes, stops it, and checks that every
// manager accessor reads the same count as the registry sample of the
// same event: each event is counted once, so the two cannot disagree.
func TestStatsAgreeWithRegistry(t *testing.T) {
	_, ds := testCluster(t, 2, func(_ int, cfg *daemon.Config) { cfg.Metrics = true })

	// Reads of an object homed on site 0: the owner's own read, then a
	// replica fetch and a replica hit at site 1.
	addr := ds[0].Mem.Alloc(types.MakeProgramID(ds[0].Self(), 999), []byte("obj"))
	if _, err := ds[0].Mem.Read(addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ds[1].Mem.Read(addr); err != nil {
			t.Fatal(err)
		}
	}

	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(20, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("did not terminate")
	}

	for _, d := range ds {
		d.Kill()
	}
	var executed uint64
	for i, d := range ds {
		// A stopped site's counts stop moving; read until they have.
		var got map[string]uint64
		var flat map[string]int64
		testnet.WaitFor(t, "frozen counters", func() bool {
			got = accessorCounts(d)
			flat = make(map[string]int64)
			metrics.Merge(flat, d.Metrics.Snapshot())
			return reflect.DeepEqual(got, accessorCounts(d))
		})
		for name, v := range got {
			if s, ok := flat[name]; !ok || uint64(s) != v {
				t.Errorf("site %d: accessor reads %s = %d, registry %d (present %v)", i, name, v, s, ok)
			}
		}
		if got["bus.sent_msgs"] == 0 {
			t.Errorf("site %d sent nothing", i)
		}
		executed += got["exec.executed"]
	}
	if executed == 0 {
		t.Error("no microthread counted")
	}
	if c := accessorCounts(ds[0]); c["mem.local_reads"] < 2 {
		t.Errorf("owner served %d reads, want at least 2", c["mem.local_reads"])
	}
	if c := accessorCounts(ds[1]); c["mem.remote_reads"] == 0 || c["mem.replica.hits"] == 0 {
		t.Errorf("reader: remote_reads %d, replica.hits %d", c["mem.remote_reads"], c["mem.replica.hits"])
	}
}

// accessorCounts reads every count a manager accessor exposes, keyed by
// the registry name of the same event.
func accessorCounts(d *daemon.Daemon) map[string]uint64 {
	ms, ss := d.Mem.Stats(), d.Sched.Stats()
	sent, received, dropped := d.Bus.Stats()
	return map[string]uint64{
		"mem.local_reads":           ms.LocalReads,
		"mem.remote_reads":          ms.RemoteReads,
		"mem.local_writes":          ms.LocalWrites,
		"mem.remote_writes":         ms.RemoteWrites,
		"mem.params_applied":        ms.ParamsApplied,
		"mem.frames_fired":          ms.FramesFired,
		"mem.migrations":            ms.Migrations,
		"mem.invalidates":           ms.Invalidates,
		"mem.invalidate_acks":       ms.InvalidateAcks,
		"mem.shard.contention":      ms.ShardContention,
		"mem.replica.hits":          ms.ReplicaHits,
		"mem.replica.invalidations": ms.ReplicaInvals,
		"mem.home.migrations":       ms.HomeMigrations,
		"sched.enqueued":            ss.Enqueued,
		"sched.dispatched":          ss.Dispatched,
		"sched.help_asked":          ss.HelpAsked,
		"sched.help_granted":        ss.HelpGranted,
		"sched.help_denied":         ss.HelpDenied,
		"sched.help_served":         ss.HelpServed,
		"sched.help_refused":        ss.HelpRefused,
		"sched.resolve_errs":        ss.ResolveErrs,
		"exec.executed":             d.Exec.Executed(),
		"exec.errors":               d.Exec.Errors(),
		"bus.sent_msgs":             sent,
		"bus.recv_msgs":             received,
		"bus.dropped":               dropped,
		"ckpt.taken":                d.Ckpt.Taken(),
		"ckpt.recovered":            d.Ckpt.Recovered(),
	}
}

func TestFrontendInputReachesRemoteMicrothread(t *testing.T) {
	mthread.Global.Register("inputtest.start", func(ctx mthread.Context) error {
		// Force the asking microthread onto a non-frontend site by
		// spawning a child that the scatter mechanism may move; the
		// Input path works identically either way, and the remote case
		// is covered by running the child on site 1 via direct push.
		line, ok := ctx.Input("what is the answer?")
		if !ok {
			ctx.Exit([]byte("no-input"))
			return nil
		}
		ctx.Exit([]byte("got:" + line))
		return nil
	})

	_, ds := testCluster(t, 2, nil)
	// The submitter's frontend answers input requests.
	ds[0].IO.SetInputProvider(func(prog types.ProgramID, prompt string) (string, bool) {
		if !strings.Contains(prompt, "answer") {
			t.Errorf("prompt = %q", prompt)
		}
		return "42", true
	})

	app := daemon.App{Name: "inputtest", Threads: []daemon.AppThread{
		{Index: 0, FuncName: "inputtest.start"},
	}}
	prog, err := ds[0].Submit(app)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 30*time.Second)
	if !ok {
		t.Fatal("did not terminate")
	}
	if string(raw) != "got:42" {
		t.Fatalf("result = %q", raw)
	}
}

func TestFrontendInputWithoutProvider(t *testing.T) {
	mthread.Global.Register("inputtest.none", func(ctx mthread.Context) error {
		_, ok := ctx.Input("anyone?")
		if ok {
			ctx.Exit([]byte("unexpected"))
		} else {
			ctx.Exit([]byte("no-provider"))
		}
		return nil
	})
	_, ds := testCluster(t, 1, nil)
	app := daemon.App{Name: "inputtest2", Threads: []daemon.AppThread{
		{Index: 0, FuncName: "inputtest.none"},
	}}
	prog, err := ds[0].Submit(app)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := ds[0].WaitResult(prog, 30*time.Second)
	if !ok {
		t.Fatal("did not terminate")
	}
	if string(raw) != "no-provider" {
		t.Fatalf("result = %q", raw)
	}
}

func TestInputCrossSite(t *testing.T) {
	// Directly exercise the remote input path: site 1 asks for input of
	// a program whose frontend is site 0.
	_, ds := testCluster(t, 2, nil)
	prog := ds[0].PM.NewProgram()
	ds[0].IO.SetInputProvider(func(types.ProgramID, string) (string, bool) {
		return "remote-line", true
	})
	// Register the program cluster-wide so site 1 knows the frontend.
	ds[0].PM.Register(programRegister(prog, ds[0].Self()))
	deadline := time.Now().Add(5 * time.Second)
	for !ds[1].PM.Known(prog) {
		if time.Now().After(deadline) {
			t.Fatal("registration did not propagate")
		}
		time.Sleep(5 * time.Millisecond)
	}

	line, ok := ds[1].IO.Input(prog, "over the wire?")
	if !ok || line != "remote-line" {
		t.Fatalf("Input = (%q,%v)", line, ok)
	}
}

// programRegister builds a registration for tests.
func programRegister(prog types.ProgramID, home types.SiteID) wire.ProgramRegister {
	return wire.ProgramRegister{Program: prog, CodeHome: home, Frontend: home, Name: "t"}
}

func TestTracerRecordsFrameCareers(t *testing.T) {
	_, ds := testCluster(t, 2, func(i int, cfg *daemon.Config) {
		cfg.TraceCapacity = 8192
	})
	prog, err := ds[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(20, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds[0].WaitResult(prog, 60*time.Second); !ok {
		t.Fatal("did not terminate")
	}

	if ds[0].Trace.Total() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	// Find a frame that was granted away and verify its merged career
	// crosses sites in a sane order: created somewhere, received on the
	// other site, executed there.
	var granted *tracepkg.Event
	for _, e := range ds[0].Trace.Events() {
		if e.Kind == tracepkg.EvGranted {
			e := e
			granted = &e
			break
		}
	}
	if granted == nil {
		t.Skip("no frame migrated in this run")
	}
	career := tracepkg.MergeCareers(granted.Frame, ds[0].Trace, ds[1].Trace)
	if len(career) < 2 {
		t.Fatalf("career too short: %v", career)
	}
	// The career must contain an execution event exactly once.
	executions := 0
	for _, e := range career {
		if e.Kind == tracepkg.EvExecuted {
			executions++
		}
	}
	if executions != 1 {
		t.Fatalf("frame executed %d times according to the trace", executions)
	}
}
