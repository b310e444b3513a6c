package sdvm

import (
	"testing"
	"time"

	"repro/internal/workloads"
)

func TestLocalClusterQuickstart(t *testing.T) {
	lc, err := NewLocalCluster(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	prog, err := lc.Sites[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(25, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := lc.Sites[0].Wait(prog, 60*time.Second)
	if !ok {
		t.Fatal("program did not terminate")
	}
	primes := ParseU64s(raw)
	if len(primes) != 25 || primes[24] != workloads.NthPrime(25) {
		t.Fatalf("primes = %v", primes)
	}
}

func TestLocalClusterSizeValidation(t *testing.T) {
	if _, err := NewLocalCluster(0, Options{}); err == nil {
		t.Fatal("zero-size cluster accepted")
	}
}

func TestRegisterAndRunCustomApp(t *testing.T) {
	Register("api-test.start", func(ctx Context) error {
		a := ParseU64(ctx.Param(0))
		b := ParseU64(ctx.Param(1))
		ctx.Output("adding")
		ctx.Exit(U64(a + b))
		return nil
	})
	lc, err := NewLocalCluster(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	app := App{Name: "api-test", Threads: []AppThread{{Index: 0, FuncName: "api-test.start"}}}
	prog, err := lc.Sites[0].Submit(app, U64(40), U64(2))
	if err != nil {
		t.Fatal(err)
	}
	out := lc.Sites[0].Output(prog)
	raw, ok := lc.Sites[0].Wait(prog, 30*time.Second)
	if !ok {
		t.Fatal("no result")
	}
	if ParseU64(raw) != 42 {
		t.Fatalf("result = %d", ParseU64(raw))
	}
	select {
	case line := <-out:
		if line != "adding" {
			t.Fatalf("output = %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no output")
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	// The real deployment path: two sites over loopback TCP with
	// encryption enabled.
	boot, err := Bootstrap(Options{Secret: "tcp-secret", SimulatedWork: true})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Kill()

	contact := boot.Daemon.CM.Self().PhysAddr
	peer, err := Join(contact, Options{Secret: "tcp-secret", SimulatedWork: true})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Kill()

	if boot.ID() == peer.ID() || !peer.ID().Valid() {
		t.Fatalf("ids: %v %v", boot.ID(), peer.ID())
	}

	prog, err := boot.Submit(workloads.PrimesApp(), workloads.PrimesArgs(20, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := boot.Wait(prog, 60*time.Second)
	if !ok {
		t.Fatal("TCP cluster did not terminate")
	}
	primes := ParseU64s(raw)
	if len(primes) != 20 || primes[19] != workloads.NthPrime(20) {
		t.Fatalf("primes = %v", primes)
	}
}

func TestJoinWrongSecretFails(t *testing.T) {
	boot, err := Bootstrap(Options{Secret: "right"})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Kill()
	contact := boot.Daemon.CM.Self().PhysAddr

	if _, err := Join(contact, Options{Secret: "wrong"}); err == nil {
		t.Fatal("join with wrong cluster secret succeeded")
	}
}

func TestSignOffThroughPublicAPI(t *testing.T) {
	lc, err := NewLocalCluster(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.Sites[2].SignOff(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := lc.Sites[0].Status()
		_ = st
		if lc.Sites[0].Daemon.CM.Size() == 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("departed site still listed")
}

func TestEncodingHelpers(t *testing.T) {
	if ParseU64(U64(7)) != 7 || ParseI64(I64(-7)) != -7 || ParseF64(F64(2.5)) != 2.5 {
		t.Fatal("scalar helpers broken")
	}
	vs := []uint64{1, 2, 3}
	got := ParseU64s(U64s(vs))
	if len(got) != 3 || got[2] != 3 {
		t.Fatal("vector helpers broken")
	}
	tg := Target{Addr: GlobalAddr{Home: 1, Local: 2}, Slot: 3}
	if ParseTarget(TargetBytes(tg)) != tg {
		t.Fatal("target helpers broken")
	}
}

func TestUsageThroughPublicAPI(t *testing.T) {
	lc, err := NewLocalCluster(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	prog, err := lc.Sites[0].Submit(workloads.PrimesApp(), workloads.PrimesArgs(20, 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lc.Sites[0].Wait(prog, 60*time.Second); !ok {
		t.Fatal("did not terminate")
	}
	total, perSite := lc.Sites[0].Usage(prog)
	if total.Executed == 0 || len(perSite) != 2 {
		t.Fatalf("usage = %+v over %d sites", total, len(perSite))
	}
}

func TestInputProviderThroughPublicAPI(t *testing.T) {
	Register("api-input.start", func(ctx Context) error {
		line, ok := ctx.Input("q?")
		if !ok {
			line = "none"
		}
		ctx.Exit([]byte(line))
		return nil
	})
	lc, err := NewLocalCluster(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	lc.Sites[0].SetInputProvider(func(ProgramID, string) (string, bool) { return "an answer", true })

	app := App{Name: "api-input", Threads: []AppThread{{Index: 0, FuncName: "api-input.start"}}}
	prog, err := lc.Sites[0].Submit(app)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := lc.Sites[0].Wait(prog, 30*time.Second)
	if !ok || string(raw) != "an answer" {
		t.Fatalf("result = %q ok=%v", raw, ok)
	}
}
