package exec

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/mthread"
	"repro/internal/sched"
	"repro/internal/testnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// execNode is a single-site execution stack with a controllable registry.
type execNode struct {
	node  *testnet.Node
	sched *sched.Manager
	mem   *memory.Manager
	exec  *Manager
	reg   *mthread.Registry

	mu      sync.Mutex
	outputs []string
	exits   [][]byte
}

type regResolver struct{ reg *mthread.Registry }

func (r regResolver) Resolve(thread types.ThreadID) (mthread.Func, error) {
	// Thread names in these tests are "t<Index>".
	name := "t" + string(rune('0'+thread.Index))
	fn, ok := r.reg.Lookup(name)
	if !ok {
		return nil, types.ErrNoSuchThread
	}
	return fn, nil
}

func newExecNode(t *testing.T, cfg Config) *execNode {
	t.Helper()
	en := &execNode{reg: mthread.NewRegistry()}
	nodes := testnet.NewCluster(t, 1, func(i int, node *testnet.Node) {
		en.node = node
		en.sched = sched.New(node.Bus, node.CM, regResolver{en.reg}, sched.Config{})
		en.mem = memory.New(node.Bus, en.sched.Enqueue)
		en.sched.SetAdopter(en.mem)
	})
	_ = nodes
	en.exec = New(en.sched, en.mem, en.node.Bus.Self,
		func(_ types.ProgramID, text string) {
			en.mu.Lock()
			en.outputs = append(en.outputs, text)
			en.mu.Unlock()
		},
		func(_ types.ProgramID, result []byte) {
			en.mu.Lock()
			en.exits = append(en.exits, result)
			en.mu.Unlock()
		}, cfg)
	en.sched.Start()
	en.exec.Start()
	t.Cleanup(func() {
		en.sched.Close()
		en.exec.Wait()
	})
	return en
}

func (en *execNode) spawn(threadIdx uint32) types.FrameID {
	prog := types.MakeProgramID(1, 1)
	return en.mem.NewFrame(types.ThreadID{Program: prog, Index: threadIdx}, 0, types.PriorityNormal, 0)
}

func TestExecutesFrame(t *testing.T) {
	en := newExecNode(t, Config{})
	done := make(chan struct{}, 1)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		done <- struct{}{}
		return nil
	})
	en.spawn(0)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("microthread never ran")
	}
	testnet.WaitFor(t, "executed counter", func() bool { return en.exec.Executed() == 1 })
}

func TestContextBasics(t *testing.T) {
	en := newExecNode(t, Config{Speed: 2.0})
	done := make(chan error, 1)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		switch {
		case ctx.Arity() != 0:
			t.Error("Arity wrong")
		case ctx.Thread().Index != 0:
			t.Error("Thread wrong")
		case ctx.Site() != en.node.Bus.Self():
			t.Error("Site wrong")
		case ctx.Speed() != 2.0:
			t.Error("Speed wrong")
		case !ctx.Target(99).IsNil():
			t.Error("out-of-range Target should be nil")
		case ctx.Param(99) != nil:
			t.Error("out-of-range Param should be nil")
		}
		done <- nil
		return nil
	})
	en.spawn(0)
	<-done
}

func TestContextMemoryOps(t *testing.T) {
	en := newExecNode(t, Config{})
	done := make(chan error, 1)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		addr := ctx.Alloc([]byte("abc"))
		if err := ctx.Write(addr, 1, []byte("X")); err != nil {
			return err
		}
		got, err := ctx.Read(addr)
		if err != nil {
			return err
		}
		if string(got) != "aXc" {
			t.Errorf("Read = %q", got)
		}
		got, err = ctx.Attract(addr)
		if err != nil {
			return err
		}
		if string(got) != "aXc" {
			t.Errorf("Attract = %q", got)
		}
		done <- nil
		return nil
	})
	en.spawn(0)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestContextDataflowChain(t *testing.T) {
	en := newExecNode(t, Config{})
	result := make(chan uint64, 1)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		// Create a t1 frame and feed it.
		f := ctx.NewFrame(1, 1)
		return ctx.Send(wire.Target{Addr: f, Slot: 0}, mthread.U64(21))
	})
	en.reg.Register("t1", func(ctx mthread.Context) error {
		result <- 2 * mthread.ParseU64(ctx.Param(0))
		return nil
	})
	en.spawn(0)
	select {
	case v := <-result:
		if v != 42 {
			t.Fatalf("chained result = %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chain never completed")
	}
}

func TestExitHookFires(t *testing.T) {
	en := newExecNode(t, Config{})
	en.reg.Register("t0", func(ctx mthread.Context) error {
		ctx.Exit([]byte("bye"))
		return nil
	})
	en.spawn(0)
	testnet.WaitFor(t, "exit hook", func() bool {
		en.mu.Lock()
		defer en.mu.Unlock()
		return len(en.exits) == 1 && string(en.exits[0]) == "bye"
	})
}

func TestOutputHookFires(t *testing.T) {
	en := newExecNode(t, Config{})
	en.reg.Register("t0", func(ctx mthread.Context) error {
		ctx.Output("report")
		return nil
	})
	en.spawn(0)
	testnet.WaitFor(t, "output hook", func() bool {
		en.mu.Lock()
		defer en.mu.Unlock()
		return len(en.outputs) == 1 && en.outputs[0] == "report"
	})
}

func TestErrorCountedAndReported(t *testing.T) {
	en := newExecNode(t, Config{})
	en.reg.Register("t0", func(ctx mthread.Context) error {
		return types.ErrNoSuchObject
	})
	en.spawn(0)
	testnet.WaitFor(t, "error counted", func() bool { return en.exec.Errors() == 1 })
	en.mu.Lock()
	defer en.mu.Unlock()
	if len(en.outputs) != 1 || !strings.Contains(en.outputs[0], "failed") {
		t.Fatalf("outputs = %v", en.outputs)
	}
}

func TestPanicDoesNotKillDaemon(t *testing.T) {
	en := newExecNode(t, Config{})
	en.reg.Register("t0", func(ctx mthread.Context) error {
		panic("application bug")
	})
	en.reg.Register("t1", func(ctx mthread.Context) error { return nil })
	en.spawn(0)
	testnet.WaitFor(t, "panic counted", func() bool { return en.exec.Errors() == 1 })
	// The daemon keeps executing other microthreads.
	en.spawn(1)
	testnet.WaitFor(t, "survivor ran", func() bool { return en.exec.Executed() >= 2 })
}

func TestSimulatedWorkSleeps(t *testing.T) {
	en := newExecNode(t, Config{Model: WorkSimulated, WorkUnit: 10 * time.Millisecond})
	done := make(chan time.Duration, 1)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		start := time.Now()
		ctx.Work(3) // 30ms at speed 1
		done <- time.Since(start)
		return nil
	})
	en.spawn(0)
	if d := <-done; d < 25*time.Millisecond {
		t.Fatalf("Work(3) took %v, want ≈30ms", d)
	}
}

func TestSpeedScalesWork(t *testing.T) {
	en := newExecNode(t, Config{Model: WorkSimulated, WorkUnit: 10 * time.Millisecond, Speed: 3.0})
	done := make(chan time.Duration, 1)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		start := time.Now()
		ctx.Work(3) // 30ms / speed 3 = 10ms
		done <- time.Since(start)
		return nil
	})
	en.spawn(0)
	d := <-done
	if d < 8*time.Millisecond || d > 25*time.Millisecond {
		t.Fatalf("Work(3) at speed 3 took %v, want ≈10ms", d)
	}
}

func TestRealWorkBurns(t *testing.T) {
	en := newExecNode(t, Config{Model: WorkReal, WorkUnit: time.Millisecond})
	done := make(chan time.Duration, 1)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		start := time.Now()
		ctx.Work(5)
		done <- time.Since(start)
		return nil
	})
	en.spawn(0)
	if d := <-done; d < 4*time.Millisecond {
		t.Fatalf("real Work(5) took %v", d)
	}
	// The run is accounted after the body returns, which is after it
	// signalled done.
	testnet.WaitFor(t, "BusyNanos accumulated", func() bool { return en.exec.BusyNanos() > 0 })
}

func TestSimulatedWorkSerializesPerSite(t *testing.T) {
	// A site models one processor: 4 frames of 30ms simulated Work on
	// one site must take ≈120ms even with a window of 4 — otherwise a
	// 1-site baseline would falsely run window-times faster and every
	// speedup experiment would be skewed.
	en := newExecNode(t, Config{Window: 4, Model: WorkSimulated, WorkUnit: time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(4)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		defer wg.Done()
		ctx.Work(30)
		return nil
	})
	start := time.Now()
	for i := 0; i < 4; i++ {
		en.spawn(0)
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(10 * time.Second):
		t.Fatal("frames never finished")
	}
	if d := time.Since(start); d < 110*time.Millisecond {
		t.Fatalf("window-4 batch of 4x30ms took %v; simulated work must serialize per site", d)
	}
}

func TestWindowOverlapsWorkWithBlockedSiblings(t *testing.T) {
	// The window's purpose (paper §4): while one microthread computes,
	// siblings may sit blocked without occupying the processor. Frames
	// that only wait (no Work) must not extend the makespan.
	en := newExecNode(t, Config{Window: 4, Model: WorkSimulated, WorkUnit: time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(3)
	en.reg.Register("t0", func(ctx mthread.Context) error { // computes
		defer wg.Done()
		ctx.Work(40)
		return nil
	})
	en.reg.Register("t1", func(ctx mthread.Context) error { // only blocks
		defer wg.Done()
		time.Sleep(40 * time.Millisecond) // stands in for a remote read
		return nil
	})
	start := time.Now()
	en.spawn(0)
	en.spawn(1)
	en.spawn(1)
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(10 * time.Second):
		t.Fatal("frames never finished")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("blocked siblings serialized with computation: %v", d)
	}
}

func TestZeroWorkIsFree(t *testing.T) {
	en := newExecNode(t, Config{Model: WorkSimulated, WorkUnit: time.Second})
	done := make(chan time.Duration, 1)
	en.reg.Register("t0", func(ctx mthread.Context) error {
		start := time.Now()
		ctx.Work(0)
		ctx.Work(-5)
		done <- time.Since(start)
		return nil
	})
	en.spawn(0)
	if d := <-done; d > 100*time.Millisecond {
		t.Fatalf("zero work took %v", d)
	}
}
