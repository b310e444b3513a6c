package msgbus

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// fakeNet wires buses together by physical address, delivering serialized
// bytes to the target bus's OnDatagram — a stand-in for netmgr.
type fakeNet struct {
	mu    sync.Mutex
	buses map[string]*Bus
	drop  map[string]bool // physAddr -> black-hole sends
}

func newFakeNet() *fakeNet {
	return &fakeNet{buses: make(map[string]*Bus), drop: make(map[string]bool)}
}

func (n *fakeNet) Send(physAddr string, datagram []byte) error {
	n.mu.Lock()
	b, ok := n.buses[physAddr]
	dropped := n.drop[physAddr]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("fakeNet: no bus at %q", physAddr)
	}
	if dropped {
		return nil // black-hole, like a partition
	}
	// Copy to model the network boundary.
	b.OnDatagram(append([]byte(nil), datagram...))
	return nil
}

// fakeResolver maps logical ids to fakeNet addresses.
type fakeResolver struct {
	mu    sync.Mutex
	addrs map[types.SiteID]string
}

func (r *fakeResolver) PhysAddr(id types.SiteID) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.addrs[id]
	if !ok {
		return "", &types.SiteError{Err: types.ErrSiteUnknown, Site: id}
	}
	return a, nil
}

func (r *fakeResolver) SiteIDs() []types.SiteID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]types.SiteID, 0, len(r.addrs))
	for id := range r.addrs {
		out = append(out, id)
	}
	return out
}

// cluster builds n connected buses with ids 1..n.
func cluster(t *testing.T, n int) ([]*Bus, *fakeNet, *fakeResolver) {
	t.Helper()
	net := newFakeNet()
	res := &fakeResolver{addrs: make(map[types.SiteID]string)}
	buses := make([]*Bus, n)
	for i := 0; i < n; i++ {
		id := types.SiteID(i + 1)
		addr := fmt.Sprintf("addr-%d", id)
		b := New(res, net)
		b.SetSelf(id)
		b.Start()
		t.Cleanup(b.Close)
		buses[i] = b
		net.mu.Lock()
		net.buses[addr] = b
		net.mu.Unlock()
		res.mu.Lock()
		res.addrs[id] = addr
		res.mu.Unlock()
	}
	return buses, net, res
}

func TestLocalSendDispatches(t *testing.T) {
	buses, _, _ := cluster(t, 1)
	b := buses[0]
	got := make(chan *wire.Message, 1)
	b.Register(types.MgrScheduling, HandlerFunc(func(m *wire.Message) { got <- m }))

	if err := b.Send(b.Self(), types.MgrScheduling, types.MgrProcessing, &wire.Ping{Nonce: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Payload.(*wire.Ping).Nonce != 7 {
			t.Fatal("wrong payload")
		}
		if m.Src != b.Self() || m.Dst != b.Self() {
			t.Fatal("wrong local routing")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("local message not dispatched")
	}
}

func TestRemoteRequestReply(t *testing.T) {
	buses, _, _ := cluster(t, 2)
	a, b := buses[0], buses[1]

	b.Register(types.MgrCluster, HandlerFunc(func(m *wire.Message) {
		ping := m.Payload.(*wire.Ping)
		if err := b.Reply(m, types.MgrCluster, &wire.Pong{Nonce: ping.Nonce}); err != nil {
			t.Errorf("Reply: %v", err)
		}
	}))

	reply, err := a.Request(b.Self(), types.MgrCluster, types.MgrCluster, &wire.Ping{Nonce: 99}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Payload.(*wire.Pong).Nonce != 99 {
		t.Fatal("wrong pong")
	}
	if reply.Src != b.Self() {
		t.Fatalf("reply.Src = %v", reply.Src)
	}
}

func TestRequestToSelf(t *testing.T) {
	buses, _, _ := cluster(t, 1)
	b := buses[0]
	b.Register(types.MgrMemory, HandlerFunc(func(m *wire.Message) {
		_ = b.Reply(m, types.MgrMemory, &wire.Pong{Nonce: 1})
	}))
	if _, err := b.Request(b.Self(), types.MgrMemory, types.MgrProcessing, &wire.Ping{Nonce: 1}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRequestTimeout(t *testing.T) {
	buses, _, _ := cluster(t, 2)
	a, b := buses[0], buses[1]
	// b has no handler: request must time out.
	_, err := a.Request(b.Self(), types.MgrCode, types.MgrCode, &wire.Ping{}, 50*time.Millisecond)
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// A reply that lands after the requester gave up must not be destroyed:
// it is dispatched to the destination manager like an ordinary one-way
// message, because replies can carry cargo (a HelpReply hands over a
// whole microframe) whose loss would strand a computation.
func TestLateReplyDispatched(t *testing.T) {
	buses, _, _ := cluster(t, 2)
	a, b := buses[0], buses[1]
	b.Register(types.MgrScheduling, HandlerFunc(func(m *wire.Message) {
		time.Sleep(150 * time.Millisecond) // outlive the requester's patience
		_ = b.Reply(m, types.MgrScheduling, &wire.HelpReply{CantHelp: true})
	}))
	late := make(chan *wire.Message, 1)
	a.Register(types.MgrScheduling, HandlerFunc(func(m *wire.Message) {
		late <- m
	}))
	_, err := a.Request(b.Self(), types.MgrScheduling, types.MgrScheduling,
		&wire.HelpRequest{Requester: a.Self()}, 30*time.Millisecond)
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	select {
	case m := <-late:
		if _, ok := m.Payload.(*wire.HelpReply); !ok {
			t.Fatalf("late dispatch carried %T, want *wire.HelpReply", m.Payload)
		}
		if m.Reply == 0 {
			t.Fatal("dispatched message lost its reply correlation id")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late reply was dropped instead of dispatched")
	}
}

func TestErrorReplyBecomesError(t *testing.T) {
	buses, _, _ := cluster(t, 2)
	a, b := buses[0], buses[1]
	b.Register(types.MgrMemory, HandlerFunc(func(m *wire.Message) {
		_ = b.ReplyErr(m, types.MgrMemory, wire.ErrCodeNoSuchObject, "object gone")
	}))
	_, err := a.Request(b.Self(), types.MgrMemory, types.MgrMemory, &wire.MemRead{}, 0)
	if !errors.Is(err, types.ErrNoSuchObject) {
		t.Fatalf("err = %v, want ErrNoSuchObject", err)
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	buses, _, _ := cluster(t, 4)
	var mu sync.Mutex
	got := map[types.SiteID]int{}
	var wg sync.WaitGroup
	wg.Add(3)
	for _, b := range buses[1:] {
		b := b
		b.Register(types.MgrCluster, HandlerFunc(func(m *wire.Message) {
			mu.Lock()
			got[b.Self()]++
			mu.Unlock()
			wg.Done()
		}))
	}
	// Sender must not receive its own broadcast.
	buses[0].Register(types.MgrCluster, HandlerFunc(func(m *wire.Message) {
		t.Error("broadcast delivered to sender")
	}))

	if err := buses[0].Send(types.Broadcast, types.MgrCluster, types.MgrCluster, &wire.Barrier{Token: 9}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast incomplete")
	}
	mu.Lock()
	defer mu.Unlock()
	for id, n := range got {
		if n != 1 {
			t.Errorf("site %v received %d copies", id, n)
		}
	}
}

func TestUnknownDestinationErrors(t *testing.T) {
	buses, _, _ := cluster(t, 1)
	err := buses[0].Send(types.SiteID(77), types.MgrCluster, types.MgrCluster, &wire.Ping{})
	if !errors.Is(err, types.ErrSiteUnknown) {
		t.Fatalf("err = %v, want ErrSiteUnknown", err)
	}
}

func TestRequestAddrBootstrap(t *testing.T) {
	// A joining site (no logical id yet) asks a known physical address
	// to sign on; the responder's reply is matched by sequence number
	// even though the requester's id is InvalidSite.
	buses, net, res := cluster(t, 1)
	contact := buses[0]

	joiner := New(res, net)
	joiner.Start()
	t.Cleanup(joiner.Close)
	net.mu.Lock()
	net.buses["addr-joiner"] = joiner
	net.mu.Unlock()

	contact.Register(types.MgrCluster, HandlerFunc(func(m *wire.Message) {
		req := m.Payload.(*wire.SignOnRequest)
		// Cluster manager behaviour: learn the joiner's address, then
		// reply to the newly assigned id (the request's Src is
		// InvalidSite — unroutable — so a plain Reply cannot work).
		res.mu.Lock()
		res.addrs[types.SiteID(5)] = req.PhysAddr
		res.mu.Unlock()
		_ = contact.SendMsg(&wire.Message{
			Src:     contact.Self(),
			Dst:     5,
			SrcMgr:  types.MgrCluster,
			DstMgr:  m.SrcMgr,
			Seq:     contact.NextSeq(),
			Reply:   m.Seq,
			Payload: &wire.SignOnReply{Assigned: 5},
		})
	}))

	reply, err := joiner.RequestAddr("addr-1", types.MgrCluster, types.MgrCluster,
		&wire.SignOnRequest{PhysAddr: "addr-joiner"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assigned := reply.Payload.(*wire.SignOnReply).Assigned
	if assigned != 5 {
		t.Fatalf("assigned = %v", assigned)
	}
	joiner.SetSelf(assigned)
	if joiner.Self() != 5 {
		t.Fatal("SetSelf failed")
	}
}

func TestCloseFailsOutstandingRequests(t *testing.T) {
	buses, _, _ := cluster(t, 2)
	a, b := buses[0], buses[1]
	// No handler at b: the request would hang. Close a midway.
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Request(b.Self(), types.MgrCode, types.MgrCode, &wire.Ping{}, 10*time.Second)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, types.ErrShutdown) {
			t.Fatalf("err = %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request still blocked after Close")
	}
}

// A late reply whose destination manager has no handler registered
// still ends in the drop counter — dispatch, not the reply path, makes
// that call.
func TestLateReplyWithoutHandlerIsDropped(t *testing.T) {
	buses, _, _ := cluster(t, 2)
	a, b := buses[0], buses[1]
	b.Register(types.MgrCode, HandlerFunc(func(m *wire.Message) {
		go func() {
			time.Sleep(150 * time.Millisecond) // answer after the timeout
			_ = b.Reply(m, types.MgrCode, &wire.Pong{})
		}()
	}))
	// a registers no MgrCode handler, so the dispatched late reply has
	// nowhere to go.
	_, err := a.Request(b.Self(), types.MgrCode, types.MgrCode, &wire.Ping{}, 30*time.Millisecond)
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	time.Sleep(250 * time.Millisecond)
	_, _, dropped := a.Stats()
	if dropped == 0 {
		t.Error("unhandled late reply not counted as dropped")
	}
}

func TestStatsCount(t *testing.T) {
	buses, _, _ := cluster(t, 2)
	a, b := buses[0], buses[1]
	b.Register(types.MgrCluster, HandlerFunc(func(m *wire.Message) {}))
	for i := 0; i < 5; i++ {
		if err := a.Send(b.Self(), types.MgrCluster, types.MgrCluster, &wire.Ping{}); err != nil {
			t.Fatal(err)
		}
	}
	sent, _, _ := a.Stats()
	if sent != 5 {
		t.Fatalf("sent = %d", sent)
	}
}

func TestMalformedDatagramDropped(t *testing.T) {
	buses, _, _ := cluster(t, 1)
	b := buses[0]
	b.OnDatagram([]byte{1, 2, 3})
	_, _, dropped := b.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestHandlerFuncAdapter(t *testing.T) {
	called := false
	h := HandlerFunc(func(m *wire.Message) { called = true })
	h.HandleMessage(&wire.Message{})
	if !called {
		t.Fatal("HandlerFunc did not call through")
	}
}

func TestRegisterInvalidPanics(t *testing.T) {
	buses, _, _ := cluster(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Register(MgrInvalid) did not panic")
		}
	}()
	buses[0].Register(types.MgrInvalid, HandlerFunc(func(*wire.Message) {}))
}

// departedResolver simulates the goodbye window: the roster snapshot
// still lists a site that has since signed off, and resolving it yields
// ErrSiteLeft (exactly what cluster.PhysAddr reports for departed ids).
type departedResolver struct {
	*fakeResolver
	left types.SiteID
}

func (r *departedResolver) PhysAddr(id types.SiteID) (string, error) {
	if id == r.left {
		return "", &types.SiteError{Err: types.ErrSiteLeft, Site: id}
	}
	return r.fakeResolver.PhysAddr(id)
}

func (r *departedResolver) SiteIDs() []types.SiteID {
	return append(r.fakeResolver.SiteIDs(), r.left)
}

// A peer that departs between the roster snapshot and the fanout send
// must be skipped, not turned into a broadcast error: the site
// manager's stats tick broadcasts every period and a goodbye processed
// mid-fanout is routine, not a fault.
func TestBroadcastSkipsDepartedPeer(t *testing.T) {
	net := newFakeNet()
	inner := &fakeResolver{addrs: make(map[types.SiteID]string)}
	res := &departedResolver{fakeResolver: inner, left: types.SiteID(3)}
	var buses []*Bus
	for _, id := range []types.SiteID{1, 2} {
		addr := fmt.Sprintf("addr-%d", id)
		b := New(res, net)
		b.SetSelf(id)
		b.Start()
		t.Cleanup(b.Close)
		net.mu.Lock()
		net.buses[addr] = b
		net.mu.Unlock()
		inner.mu.Lock()
		inner.addrs[id] = addr
		inner.mu.Unlock()
		buses = append(buses, b)
	}
	got := make(chan *wire.Message, 1)
	buses[1].Register(types.MgrCluster, HandlerFunc(func(m *wire.Message) { got <- m }))

	if err := buses[0].Send(types.Broadcast, types.MgrCluster, types.MgrCluster, &wire.Barrier{}); err != nil {
		t.Fatalf("broadcast over a departed peer errored: %v", err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("live peer missed the broadcast")
	}

	// Direct sends still surface the departure — only the fanout skips.
	if err := buses[0].Send(types.SiteID(3), types.MgrCluster, types.MgrCluster, &wire.Ping{}); !errors.Is(err, types.ErrSiteLeft) {
		t.Fatalf("direct send to departed site: got %v, want ErrSiteLeft", err)
	}
}
