// Package transporttest provides a conformance suite run against every
// transport.Network implementation, so tcp and inproc provably offer the
// same contract to the network manager.
package transporttest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// Factory creates a fresh network and returns it with a generator for
// listen addresses valid on that network.
type Factory func(t *testing.T) (net transport.Network, nextAddr func() string)

// Run exercises the full Network/Listener/Endpoint contract.
func Run(t *testing.T, factory Factory) {
	t.Run("EchoRoundTrip", func(t *testing.T) { testEcho(t, factory) })
	t.Run("LargeDatagram", func(t *testing.T) { testLarge(t, factory) })
	t.Run("ManyMessagesInOrder", func(t *testing.T) { testOrder(t, factory) })
	t.Run("ConcurrentSenders", func(t *testing.T) { testConcurrent(t, factory) })
	t.Run("DialNoListener", func(t *testing.T) { testNoListener(t, factory) })
	t.Run("CloseUnblocksRecv", func(t *testing.T) { testCloseUnblocks(t, factory) })
	t.Run("ListenerCloseUnblocksAccept", func(t *testing.T) { testListenerClose(t, factory) })
	t.Run("DialRacesListenerClose", func(t *testing.T) { testDialRacesListenerClose(t, factory) })
	t.Run("OversizeRejected", func(t *testing.T) { testOversize(t, factory) })
	t.Run("MultipleClients", func(t *testing.T) { testMultipleClients(t, factory) })
	t.Run("BurstOfSizes", func(t *testing.T) { testBurstOfSizes(t, factory) })
	t.Run("SendAfterCloseFails", func(t *testing.T) { testSendAfterClose(t, factory) })
}

// pair establishes a connected client/server endpoint pair.
func pair(t *testing.T, net transport.Network, addr string) (client, server transport.Endpoint, cleanup func()) {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	type res struct {
		ep  transport.Endpoint
		err error
	}
	ch := make(chan res, 1)
	go func() {
		ep, err := l.Accept()
		ch <- res{ep, err}
	}()
	c, err := net.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Accept: %v", r.err)
	}
	return c, r.ep, func() {
		c.Close()
		r.ep.Close()
		l.Close()
	}
}

func testEcho(t *testing.T, factory Factory) {
	net, next := factory(t)
	c, s, cleanup := pair(t, net, next())
	defer cleanup()

	msg := []byte("help request")
	if err := c.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := s.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("Recv = %q, want %q", got, msg)
	}
	// And back.
	if err := s.Send([]byte("can't help")); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	got, err = c.Recv()
	if err != nil {
		t.Fatalf("reply Recv: %v", err)
	}
	if string(got) != "can't help" {
		t.Fatalf("reply = %q", got)
	}
}

func testLarge(t *testing.T, factory Factory) {
	net, next := factory(t)
	c, s, cleanup := pair(t, net, next())
	defer cleanup()

	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	done := make(chan error, 1)
	go func() { done <- c.Send(big) }()
	got, err := s.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large datagram corrupted")
	}
}

func testOrder(t *testing.T, factory Factory) {
	net, next := factory(t)
	c, s, cleanup := pair(t, net, next())
	defer cleanup()

	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		got, err := s.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("m%d", i); string(got) != want {
			t.Fatalf("message %d = %q, want %q (order violated)", i, got, want)
		}
	}
}

func testConcurrent(t *testing.T, factory Factory) {
	net, next := factory(t)
	c, s, cleanup := pair(t, net, next())
	defer cleanup()

	const senders, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := c.Send([]byte("x")); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}()
	}
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for i := 0; i < senders*per; i++ {
			if _, err := s.Recv(); err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case <-recvDone:
	case <-time.After(10 * time.Second):
		t.Fatal("receiver did not see all datagrams")
	}
}

func testNoListener(t *testing.T, factory Factory) {
	net, next := factory(t)
	if _, err := net.Dial(next() + "-nobody-home"); err == nil {
		t.Fatal("Dial to unbound address succeeded")
	}
}

func testCloseUnblocks(t *testing.T, factory Factory) {
	net, next := factory(t)
	c, s, cleanup := pair(t, net, next())
	defer cleanup()

	errCh := make(chan error, 1)
	go func() {
		_, err := s.Recv()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	s.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv returned nil error after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked after close")
	}
}

func testListenerClose(t *testing.T, factory Factory) {
	net, next := factory(t)
	l, err := net.Listen(next())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	l.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Accept returned nil error after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept still blocked after listener close")
	}
}

// testDialRacesListenerClose closes a listener while several goroutines
// dial it in a loop. Every dial must either connect or fail with an
// error — a site shutting down while idle peers send it help requests
// does exactly this.
func testDialRacesListenerClose(t *testing.T, factory Factory) {
	net, next := factory(t)
	for round := 0; round < 20; round++ {
		l, err := net.Listen(next())
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		accepted := make(chan struct{}, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ep, err := l.Accept()
				if err != nil {
					return
				}
				ep.Close()
				select {
				case accepted <- struct{}{}:
				default:
				}
			}
		}()
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ep, err := net.Dial(l.Addr())
					if err != nil {
						return
					}
					ep.Close()
				}
			}()
		}
		<-accepted
		l.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("dialers or acceptor still running after listener close")
		}
	}
}

func testOversize(t *testing.T, factory Factory) {
	net, next := factory(t)
	c, _, cleanup := pair(t, net, next())
	defer cleanup()
	huge := make([]byte, transport.MaxDatagram+1)
	if err := c.Send(huge); err == nil {
		t.Fatal("oversize Send succeeded")
	}
}

// testBurstOfSizes drives rapidly varying datagram sizes through one
// connection and checks framing integrity end to end: header and body
// must never tear or interleave (the tcp implementation sends them as
// one vectored write), and since Recv may reuse its buffer, each
// datagram is verified before the next Recv — exactly how a contract-
// respecting caller behaves.
func testBurstOfSizes(t *testing.T, factory Factory) {
	net, next := factory(t)
	c, s, cleanup := pair(t, net, next())
	defer cleanup()

	sizes := []int{1, 3, 4096, 1, 65537, 2, 100000, 5, 512, 1}
	go func() {
		buf := make([]byte, 100000)
		for i, n := range sizes {
			for j := 0; j < n; j++ {
				buf[j] = byte(i*31 + j)
			}
			if err := c.Send(buf[:n]); err != nil {
				t.Errorf("Send size %d: %v", n, err)
				return
			}
		}
	}()
	for i, n := range sizes {
		got, err := s.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if len(got) != n {
			t.Fatalf("datagram %d: %d bytes, want %d (framing torn)", i, len(got), n)
		}
		for j, b := range got {
			if b != byte(i*31+j) {
				t.Fatalf("datagram %d corrupted at byte %d", i, j)
			}
		}
	}
}

// testSendAfterClose checks a closed endpoint eventually refuses to
// send. "Eventually" tolerates transports that only notice the
// teardown on a later attempt (real sockets buffer; reliable-UDP
// retries), but a transport that accepts datagrams forever after Close
// would make the network manager's redial logic unreachable.
func testSendAfterClose(t *testing.T, factory Factory) {
	net, next := factory(t)
	c, _, cleanup := pair(t, net, next())
	defer cleanup()
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Send([]byte("after close")); err != nil {
			return // contract satisfied
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("Send kept succeeding on a closed endpoint")
}

func testMultipleClients(t *testing.T, factory Factory) {
	net, next := factory(t)
	l, err := net.Listen(next())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	const clients = 5
	var wg sync.WaitGroup
	// Server: accept each client, echo its single message back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < clients; i++ {
			ep, err := l.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			go func() {
				defer ep.Close()
				msg, err := ep.Recv()
				if err != nil {
					t.Errorf("server Recv: %v", err)
					return
				}
				if err := ep.Send(msg); err != nil {
					t.Errorf("server Send: %v", err)
				}
			}()
		}
	}()

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := net.Dial(l.Addr())
			if err != nil {
				t.Errorf("client %d Dial: %v", i, err)
				return
			}
			defer ep.Close()
			want := fmt.Sprintf("client-%d", i)
			if err := ep.Send([]byte(want)); err != nil {
				t.Errorf("client %d Send: %v", i, err)
				return
			}
			got, err := ep.Recv()
			if err != nil {
				t.Errorf("client %d Recv: %v", i, err)
				return
			}
			if string(got) != want {
				t.Errorf("client %d echo = %q, want %q", i, got, want)
			}
		}(i)
	}
	wg.Wait()
}
