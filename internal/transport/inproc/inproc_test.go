package inproc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

func TestConformance(t *testing.T) {
	n := 0
	transporttest.Run(t, func(t *testing.T) (transport.Network, func() string) {
		f := New(LinkProfile{})
		t.Cleanup(f.Close)
		return f, func() string {
			n++
			return fmt.Sprintf("site-%d", n)
		}
	})
}

func TestLatencyIsApplied(t *testing.T) {
	const lat = 30 * time.Millisecond
	f := New(LinkProfile{Latency: lat})
	defer f.Close()

	l, err := f.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan transport.Endpoint, 1)
	go func() {
		ep, err := l.Accept()
		if err == nil {
			accepted <- ep
		}
	}()
	c, err := f.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted

	start := time.Now()
	if err := c.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < lat {
		t.Errorf("delivery took %v, want >= %v", got, lat)
	}
}

func TestBandwidthDelaysLargeMessages(t *testing.T) {
	// 1 MiB at 10 MiB/s must take at least ~100ms.
	f := New(LinkProfile{BytesPerSecond: 10 << 20})
	defer f.Close()

	l, _ := f.Listen("a")
	accepted := make(chan transport.Endpoint, 1)
	go func() {
		ep, _ := l.Accept()
		accepted <- ep
	}()
	c, err := f.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted

	start := time.Now()
	if err := c.Send(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 90*time.Millisecond {
		t.Errorf("1MiB at 10MiB/s took %v, want >= 90ms", got)
	}
}

func TestKillSiteDropsLinksAndListener(t *testing.T) {
	f := New(LinkProfile{})
	defer f.Close()

	l, _ := f.Listen("victim")
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	c, err := f.Dial("victim")
	if err != nil {
		t.Fatal(err)
	}

	f.KillSite("victim")

	// Existing link must be dead.
	if _, err := c.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Recv after kill = %v, want ErrClosed", err)
	}
	// New dials must fail.
	if _, err := f.Dial("victim"); err == nil {
		t.Error("Dial to killed site succeeded")
	}
}

func TestKilledSiteCanRebind(t *testing.T) {
	f := New(LinkProfile{})
	defer f.Close()
	if _, err := f.Listen("s"); err != nil {
		t.Fatal(err)
	}
	f.KillSite("s")
	// A crashed site that restarts (recovery) may bind again.
	if _, err := f.Listen("s"); err != nil {
		t.Fatalf("rebind after kill: %v", err)
	}
	if _, err := f.Dial("s"); err != nil {
		t.Fatalf("dial after rebind: %v", err)
	}
}

func TestPartitionBlocksDial(t *testing.T) {
	f := New(LinkProfile{})
	defer f.Close()
	_, _ = f.Listen("a")
	_, _ = f.Listen("b")
	f.Partition(1, "b")

	// a (group 0) sends to b (group 1): established link black-holes.
	lb, _ := f.Listen("c")
	_ = lb
	c, err := f.Dial("b") // dialing still works (connection exists)...
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("lost")); err != nil {
		t.Fatalf("Send across partition should black-hole, got %v", err)
	}
	// ...but nothing arrives: verified via Heal + timing would race, so
	// instead check sameIsland directly.
	if f.sameIsland("dial->b#x", "b") {
		t.Error("dialer (group 0) and b (group 1) should be split")
	}
	f.Heal()
	if !f.sameIsland("anything", "b") {
		t.Error("Heal did not reunify the network")
	}
}

func TestDuplicateBindFails(t *testing.T) {
	f := New(LinkProfile{})
	defer f.Close()
	if _, err := f.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen("x"); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
}

func TestFabricCloseStopsEverything(t *testing.T) {
	f := New(LinkProfile{})
	l, _ := f.Listen("x")
	acceptErr := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		acceptErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close()
	select {
	case err := <-acceptErr:
		if err == nil {
			t.Error("Accept survived fabric close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept blocked after fabric close")
	}
	if _, err := f.Listen("y"); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Listen after close = %v", err)
	}
	if _, err := f.Dial("x"); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Dial after close = %v", err)
	}
	f.Close() // idempotent
}

func TestZeroLatencyFastPath(t *testing.T) {
	// With a zero profile, a round trip should be well under a millisecond
	// — this guards the overhead experiment against accidental sleeps in
	// the fast path.
	f := New(LinkProfile{})
	defer f.Close()
	l, _ := f.Listen("a")
	go func() {
		ep, err := l.Accept()
		if err != nil {
			return
		}
		for {
			m, err := ep.Recv()
			if err != nil {
				return
			}
			if ep.Send(m) != nil {
				return
			}
		}
	}()
	c, err := f.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const rounds = 100
	for i := 0; i < rounds; i++ {
		if err := c.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	perRT := time.Since(start) / rounds
	if perRT > 2*time.Millisecond {
		t.Errorf("zero-profile round trip = %v, want < 2ms", perRT)
	}
}

func TestPipeKeepsOrderAndBlocksWhenFull(t *testing.T) {
	f := New(LinkProfile{})
	defer f.Close()
	l, _ := f.Listen("a")
	c, err := f.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// An idle link reserves no queue storage.
	if ring := c.(*endpoint).out.ring; ring != nil {
		t.Fatalf("idle link holds %d slots", len(ring))
	}
	for i := 0; i < pipeDepth; i++ {
		if err := c.Send([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- c.Send([]byte("overflow")) }()
	select {
	case err := <-blocked:
		t.Fatalf("send into a full pipe returned %v, want it to block", err)
	case <-time.After(20 * time.Millisecond):
	}
	for i := 0; i < pipeDepth; i++ {
		m, err := s.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(m), fmt.Sprint(i); got != want {
			t.Fatalf("datagram %d = %q, want %q", i, got, want)
		}
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocked send: %v", err)
	}
	if m, err := s.Recv(); err != nil || string(m) != "overflow" {
		t.Fatalf("last datagram = %q, %v", m, err)
	}
}

func TestBlockedSendFailsOnClose(t *testing.T) {
	f := New(LinkProfile{})
	defer f.Close()
	l, _ := f.Listen("a")
	c, err := f.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pipeDepth; i++ {
		if err := c.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- c.Send([]byte("x")) }()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("blocked send after peer close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked send did not return after the peer closed")
	}
}

func TestPipeWrapsWhileGrowing(t *testing.T) {
	p := newPipe()
	never := make(chan struct{})
	pushed, popped := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 5; i++ {
			if err := p.push(delivery{data: []byte(fmt.Sprint(pushed))}, never, never); err != nil {
				t.Fatal(err)
			}
			pushed++
		}
		for i := 0; i < 3; i++ {
			d, ok := p.pop()
			if !ok || string(d.data) != fmt.Sprint(popped) {
				t.Fatalf("pop %d = %q, %v", popped, d.data, ok)
			}
			popped++
		}
	}
	for ; popped < pushed; popped++ {
		if d, ok := p.pop(); !ok || string(d.data) != fmt.Sprint(popped) {
			t.Fatalf("drain %d = %q, %v", popped, d.data, ok)
		}
	}
	if _, ok := p.pop(); ok {
		t.Fatal("pop from an empty pipe succeeded")
	}
}

// Concurrent senders on one endpoint past the pipe's depth: every
// datagram arrives once, each sender's in order.
func TestPipeConcurrentSenders(t *testing.T) {
	f := New(LinkProfile{})
	defer f.Close()
	l, _ := f.Listen("a")
	c, err := f.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 4, pipeDepth
	errs := make(chan error, senders)
	for w := 0; w < senders; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				if err := c.Send([]byte{byte(w), byte(i >> 8), byte(i)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	next := make([]int, senders)
	for n := 0; n < senders*each; n++ {
		m, err := s.Recv()
		if err != nil {
			t.Fatal(err)
		}
		w, i := int(m[0]), int(m[1])<<8|int(m[2])
		if i != next[w] {
			t.Fatalf("sender %d: datagram %d arrived, want %d", w, i, next[w])
		}
		next[w]++
	}
	for w := 0; w < senders; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
