package netmgr

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
)

// collect buffers delivered datagrams for assertions.
type collect struct {
	mu   sync.Mutex
	msgs [][]byte
	ch   chan []byte
}

func newCollect() *collect {
	return &collect{ch: make(chan []byte, 128)}
}

func (c *collect) handler(d []byte) {
	c.mu.Lock()
	c.msgs = append(c.msgs, d)
	c.mu.Unlock()
	c.ch <- d
}

func (c *collect) wait(t *testing.T) []byte {
	t.Helper()
	select {
	case d := <-c.ch:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no datagram delivered")
		return nil
	}
}

func newPairT(t *testing.T, sec security.Layer) (a, b *Manager, ca, cb *collect, addrA, addrB string) {
	t.Helper()
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)

	ca, cb = newCollect(), newCollect()
	a = New(fab, sec, ca.handler)
	b = New(fab, sec, cb.handler)
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)

	var err error
	addrA, err = a.Listen("site-a")
	if err != nil {
		t.Fatal(err)
	}
	addrB, err = b.Listen("site-b")
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestSendDeliversPlaintext(t *testing.T) {
	a, _, _, cb, _, addrB := newPairT(t, security.Plaintext{})
	if err := a.Send(addrB, []byte("help request")); err != nil {
		t.Fatal(err)
	}
	if got := cb.wait(t); string(got) != "help request" {
		t.Fatalf("delivered %q", got)
	}
}

func TestSendDeliversEncrypted(t *testing.T) {
	sec, err := security.NewAESGCM("cluster-pw")
	if err != nil {
		t.Fatal(err)
	}
	a, b, ca, cb, addrA, addrB := newPairT(t, sec)

	if err := a.Send(addrB, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if got := cb.wait(t); string(got) != "secret" {
		t.Fatalf("delivered %q", got)
	}
	// Reverse direction over b's own dial.
	if err := b.Send(addrA, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	if got := ca.wait(t); string(got) != "reply" {
		t.Fatalf("delivered %q", got)
	}
}

func TestMismatchedKeysDropSilently(t *testing.T) {
	secA, _ := security.NewAESGCM("alpha")
	secB, _ := security.NewAESGCM("beta")
	fab := inproc.New(inproc.LinkProfile{})
	defer fab.Close()

	cb := newCollect()
	a := New(fab, secA, func([]byte) {})
	b := New(fab, secB, cb.handler)
	defer a.Close()
	defer b.Close()
	if _, err := a.Listen("a"); err != nil {
		t.Fatal(err)
	}
	addrB, err := b.Listen("b")
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Send(addrB, []byte("noise")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-cb.ch:
		t.Fatalf("foreign-key datagram delivered: %q", d)
	case <-time.After(100 * time.Millisecond):
		// Correct: dropped.
	}
}

func TestConnectionReuse(t *testing.T) {
	a, _, _, cb, _, addrB := newPairT(t, security.Plaintext{})
	for i := 0; i < 50; i++ {
		if err := a.Send(addrB, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		cb.wait(t)
	}
	a.mu.Lock()
	n := len(a.live)
	a.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d dialed connections, want 1", n)
	}
}

func TestRepliesArriveOnDialedConnection(t *testing.T) {
	// a dials b; b answers over its own Send — and a must also receive
	// traffic b initiates, without b ever dialing (beyond its own cache).
	a, b, ca, cb, addrA, addrB := newPairT(t, security.Plaintext{})
	if err := a.Send(addrB, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	cb.wait(t)
	if err := b.Send(addrA, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	ca.wait(t)
}

func TestSendToDeadPeerFails(t *testing.T) {
	fab := inproc.New(inproc.LinkProfile{})
	defer fab.Close()
	a := New(fab, security.Plaintext{}, func([]byte) {})
	defer a.Close()
	if err := a.Send("nobody", []byte("x")); err == nil {
		t.Fatal("Send to unbound address succeeded")
	}
}

func TestRedialAfterPeerRestart(t *testing.T) {
	fab := inproc.New(inproc.LinkProfile{})
	defer fab.Close()

	cb := newCollect()
	a := New(fab, security.Plaintext{}, func([]byte) {})
	defer a.Close()
	b1 := New(fab, security.Plaintext{}, cb.handler)
	addrB, err := b1.Listen("b")
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Send(addrB, []byte("one")); err != nil {
		t.Fatal(err)
	}
	cb.wait(t)

	// Restart b: old connections die, a's cache goes stale.
	b1.Close()
	b2 := New(fab, security.Plaintext{}, cb.handler)
	defer b2.Close()
	if _, err := b2.Listen("b"); err != nil {
		t.Fatal(err)
	}

	// Allow close to propagate, then Send must transparently redial.
	time.Sleep(20 * time.Millisecond)
	if err := a.Send(addrB, []byte("two")); err != nil {
		t.Fatalf("Send after peer restart: %v", err)
	}
	if got := cb.wait(t); string(got) != "two" {
		t.Fatalf("delivered %q", got)
	}
}

func TestForgetDropsPeerState(t *testing.T) {
	a, _, _, cb, _, addrB := newPairT(t, security.Plaintext{})
	if err := a.Send(addrB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	cb.wait(t)
	a.mu.Lock()
	ep := a.peers[addrB].ep
	a.mu.Unlock()

	a.Forget(addrB)
	if a.HasPeer(addrB) {
		t.Fatal("per-peer state survived Forget")
	}
	if err := ep.Send([]byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("cached connection still open after Forget: %v", err)
	}
	// The peer is still there: the next Send starts over with a dial.
	if err := a.Send(addrB, []byte("again")); err != nil {
		t.Fatalf("Send after Forget: %v", err)
	}
	if got := cb.wait(t); string(got) != "again" {
		t.Fatalf("delivered %q", got)
	}
}

func TestCloseIsIdempotentAndTerminal(t *testing.T) {
	a, _, _, _, _, addrB := newPairT(t, security.Plaintext{})
	a.Close()
	a.Close()
	if err := a.Send(addrB, []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close = %v", err)
	}
	if _, err := a.Listen("again"); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Listen after Close = %v", err)
	}
}

// hookNet is a transport with no listeners whose endpoints hand every
// sent envelope to send (nil: swallow it), isolating the manager's send
// path from any real link.
type hookNet struct {
	send func(envelope []byte) error
}

type hookEndpoint struct {
	send   func(envelope []byte) error
	closed chan struct{}
	once   sync.Once
}

func (hookNet) Listen(addr string) (transport.Listener, error) {
	return nil, transport.ErrClosed
}

func (n hookNet) Dial(addr string) (transport.Endpoint, error) {
	return &hookEndpoint{send: n.send, closed: make(chan struct{})}, nil
}

func (e *hookEndpoint) Send(envelope []byte) error {
	if e.send == nil {
		return nil
	}
	return e.send(envelope)
}

func (e *hookEndpoint) Recv() ([]byte, error) {
	<-e.closed
	return nil, transport.ErrClosed
}

func (e *hookEndpoint) Close() error {
	e.once.Do(func() { close(e.closed) })
	return nil
}

func (e *hookEndpoint) RemoteAddr() string { return "hook" }

// TestSequentialSenderNeverBatches pins the idle-peer case: a sender
// that waits for each Send to return never finds one in flight, so
// every datagram travels alone under the single tag, as it always has.
func TestSequentialSenderNeverBatches(t *testing.T) {
	var tags []byte
	reg := metrics.NewRegistry()
	a := New(hookNet{send: func(env []byte) error {
		tags = append(tags, env[0])
		return nil
	}}, security.Plaintext{}, func([]byte) {})
	a.SetMetrics(reg)
	defer a.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("peer", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tags) != n {
		t.Fatalf("%d envelopes for %d sends", len(tags), n)
	}
	for i, tag := range tags {
		if tag != tagSingle {
			t.Fatalf("envelope %d has tag %#x, want tagSingle", i, tag)
		}
	}
	if c := reg.Counter("net.coalesced").Load(); c != 0 {
		t.Fatalf("net.coalesced = %d, want 0", c)
	}
	if c := reg.Counter("net.send_datagrams").Load(); c != n {
		t.Fatalf("net.send_datagrams = %d, want %d", c, n)
	}
}

// TestBatchSharesTransportVerdict holds one send in flight, lets k more
// pile up behind it, and checks they leave as one batch envelope whose
// transport verdict — delivered or failed — reaches every one of the
// k callers.
func TestBatchSharesTransportVerdict(t *testing.T) {
	boom := errors.New("link down")
	for _, verdict := range []error{nil, boom} {
		const k = 5
		entered := make(chan struct{}, 1)
		release := make(chan struct{})
		var mu sync.Mutex
		var envelopes [][]byte
		reg := metrics.NewRegistry()
		a := New(hookNet{send: func(env []byte) error {
			mu.Lock()
			first := len(envelopes) == 0
			envelopes = append(envelopes, append([]byte(nil), env...))
			mu.Unlock()
			if first {
				entered <- struct{}{}
				<-release
				return nil
			}
			return verdict
		}}, security.Plaintext{}, func([]byte) {})
		a.SetMetrics(reg)

		errs := make(chan error, k+1)
		go func() { errs <- a.Send("peer", []byte("in flight")) }()
		<-entered
		for i := 0; i < k; i++ {
			go func() { errs <- a.Send("peer", []byte("rider")) }()
		}
		p, _ := a.peer("peer")
		deadline := time.Now().Add(5 * time.Second)
		for {
			p.mu.Lock()
			queued := 0
			if p.next != nil {
				queued = p.next.count
			}
			p.mu.Unlock()
			if queued == k {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d sends joined the pending envelope", queued, k)
			}
			time.Sleep(time.Millisecond)
		}
		close(release)

		failed := 0
		for i := 0; i < k+1; i++ {
			if err := <-errs; err != nil {
				if !errors.Is(err, boom) {
					t.Fatalf("Send error %v, want %v", err, boom)
				}
				failed++
			}
		}
		wantFailed, wantEnvelopes := 0, 2
		if verdict != nil {
			// Every rider fails, after the batch was tried on the cached
			// and on one fresh connection.
			wantFailed, wantEnvelopes = k, 3
		}
		if failed != wantFailed {
			t.Fatalf("verdict %v: %d sends failed, want %d", verdict, failed, wantFailed)
		}
		if len(envelopes) != wantEnvelopes {
			t.Fatalf("verdict %v: %d envelopes hit the link, want %d", verdict, len(envelopes), wantEnvelopes)
		}
		if envelopes[0][0] != tagSingle || envelopes[1][0] != tagBatch {
			t.Fatalf("envelope tags %#x, %#x; want single then batch", envelopes[0][0], envelopes[1][0])
		}
		if want := 1 + k*(4+len("rider")); len(envelopes[1]) != want {
			t.Fatalf("batch envelope is %d bytes, want %d for %d records", len(envelopes[1]), want, k)
		}
		if c := reg.Counter("net.coalesced").Load(); c != k {
			t.Fatalf("net.coalesced = %d, want %d", c, k)
		}
		if c := reg.Counter("net.send_errors").Load(); c != uint64(wantFailed) {
			t.Fatalf("net.send_errors = %d, want %d", c, wantFailed)
		}
		a.Close()
	}
}
