// Package inproc implements a virtual network inside one OS process.
//
// A Fabric is a set of named listening points connected by simulated
// links. Every datagram is delayed by a configurable per-hop latency plus
// a size-proportional bandwidth term, so cluster-wide timing behaves like
// a LAN rather than like function calls. The Fabric also injects faults:
// individual sites can be killed (all their links drop instantly, as in a
// crash) and the network can be partitioned into groups that cannot reach
// each other — both needed by the crash-management and churn experiments.
//
// With zero latency the Fabric degenerates to plain in-memory queues and
// adds only sub-microsecond overhead, which keeps the Table 1 speedup
// benches honest: time is spent in application work and protocol logic,
// not in the simulator.
package inproc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// LinkProfile describes the simulated link characteristics of a Fabric.
type LinkProfile struct {
	// Latency is the fixed one-way delay per datagram.
	Latency time.Duration
	// BytesPerSecond throttles by datagram size; 0 = infinite bandwidth.
	BytesPerSecond float64
}

// delay returns the simulated one-way transfer time for n bytes.
func (p LinkProfile) delay(n int) time.Duration {
	d := p.Latency
	if p.BytesPerSecond > 0 {
		d += time.Duration(float64(n) / p.BytesPerSecond * float64(time.Second))
	}
	return d
}

// Fabric is a virtual network. The zero value is not usable; call New.
type Fabric struct {
	profile LinkProfile

	mu        sync.Mutex
	listeners map[string]*listener
	endpoints map[string][]*endpoint // live endpoints by local address
	partition map[string]int         // address -> partition group; absent = group 0
	killed    map[string]bool
	closed    bool
}

// New returns an empty Fabric with the given link profile.
func New(profile LinkProfile) *Fabric {
	return &Fabric{
		profile:   profile,
		listeners: make(map[string]*listener),
		endpoints: make(map[string][]*endpoint),
		partition: make(map[string]int),
		killed:    make(map[string]bool),
	}
}

// Listen binds a named listening point.
func (f *Fabric) Listen(addr string) (transport.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, transport.ErrClosed
	}
	if _, taken := f.listeners[addr]; taken {
		return nil, fmt.Errorf("inproc: address %q already bound", addr)
	}
	l := &listener{
		fabric:  f,
		addr:    addr,
		backlog: make(chan *endpoint, 64),
	}
	f.listeners[addr] = l
	delete(f.killed, addr) // rebinding revives a killed address
	return l, nil
}

// Dial connects to a listening point. The local address of the resulting
// endpoint is synthesized from the remote name.
func (f *Fabric) Dial(addr string) (transport.Endpoint, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, transport.ErrClosed
	}
	l, ok := f.listeners[addr]
	if !ok || f.killed[addr] {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", transport.ErrNoListener, addr)
	}
	local := fmt.Sprintf("dial->%s#%p", addr, &struct{}{})
	a, b := f.newPair(local, addr)
	f.mu.Unlock()

	if err := l.offer(b); err != nil {
		a.Close()
		b.Close()
		return nil, err
	}
	return a, nil
}

// newPair creates two connected endpoints. Caller holds f.mu.
func (f *Fabric) newPair(addrA, addrB string) (*endpoint, *endpoint) {
	ab, ba := newPipe(), newPipe()
	a := &endpoint{fabric: f, local: addrA, remote: addrB, in: ba, out: ab, done: make(chan struct{})}
	b := &endpoint{fabric: f, local: addrB, remote: addrA, in: ab, out: ba, done: make(chan struct{})}
	a.peer, b.peer = b, a
	f.endpoints[addrA] = append(f.endpoints[addrA], a)
	f.endpoints[addrB] = append(f.endpoints[addrB], b)
	return a, b
}

// KillSite simulates a crash of the site listening at addr: its listener
// stops accepting and every link touching it drops without any goodbye —
// exactly what the crash-detection heartbeat must notice.
func (f *Fabric) KillSite(addr string) {
	f.mu.Lock()
	f.killed[addr] = true
	l := f.listeners[addr]
	eps := append([]*endpoint(nil), f.endpoints[addr]...)
	f.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, e := range eps {
		e.Close()
		e.peer.Close()
	}
}

// Partition splits the fabric: addresses in group live in their own
// network island. Dials and sends crossing island boundaries fail or
// black-hole (sends already in flight are dropped). Group 0 is the
// default island.
func (f *Fabric) Partition(group int, addrs ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range addrs {
		f.partition[a] = group
	}
}

// Heal removes all partitions.
func (f *Fabric) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partition = make(map[string]int)
}

// sameIsland reports whether two addresses may currently communicate.
// Caller need not hold f.mu.
func (f *Fabric) sameIsland(a, b string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partition[a] == f.partition[b]
}

// Close tears the whole fabric down.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	ls := make([]*listener, 0, len(f.listeners))
	for _, l := range f.listeners {
		ls = append(ls, l)
	}
	var eps []*endpoint
	for _, list := range f.endpoints {
		eps = append(eps, list...)
	}
	f.mu.Unlock()

	for _, l := range ls {
		l.Close()
	}
	for _, e := range eps {
		e.Close()
	}
}

// delivery is one datagram in flight with its simulated arrival time.
type delivery struct {
	data    []byte
	readyAt time.Time
}

// pipeDepth is how many datagrams one direction of a link holds before
// its sender blocks: the modeled back-pressure of a full pipe.
const pipeDepth = 4096

// pipe is one direction of a link: a FIFO ring of at most pipeDepth
// deliveries with one receiver and senders serialized by the sending
// endpoint. The ring grows with the backlog instead of being reserved
// up front, so an idle link costs a few words. Every pair of sites
// that talks opens a link each way; reserving pipeDepth slots per
// direction (about 190 KiB) made a 128-site fabric allocate gigabytes
// while its rosters converged.
type pipe struct {
	mu   sync.Mutex
	ring []delivery // len is zero or a power of two
	head int
	n    int
	// ready holds a token once a push made the ring non-empty; space
	// holds one once a pop made a full ring non-full. Stale tokens only
	// cause a spurious re-check.
	ready chan struct{}
	space chan struct{}
}

func newPipe() *pipe {
	return &pipe{ready: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

// push appends d, blocking while the pipe is full until a pop makes
// room or either endpoint closes.
func (p *pipe) push(d delivery, done, peerDone <-chan struct{}) error {
	for {
		p.mu.Lock()
		if p.n < pipeDepth {
			if p.n == len(p.ring) {
				p.grow()
			}
			p.ring[(p.head+p.n)&(len(p.ring)-1)] = d
			p.n++
			p.mu.Unlock()
			signal(p.ready)
			return nil
		}
		p.mu.Unlock()
		select {
		case <-p.space:
		case <-done:
			return transport.ErrClosed
		case <-peerDone:
			return transport.ErrClosed
		}
	}
}

// grow doubles the ring, keeping the queued deliveries in order. Caller
// holds p.mu.
func (p *pipe) grow() {
	size := 2 * len(p.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]delivery, size)
	for i := 0; i < p.n; i++ {
		ring[i] = p.ring[(p.head+i)&(len(p.ring)-1)]
	}
	p.ring, p.head = ring, 0
}

// pop takes the oldest delivery without blocking.
func (p *pipe) pop() (delivery, bool) {
	p.mu.Lock()
	if p.n == 0 {
		p.mu.Unlock()
		return delivery{}, false
	}
	d := p.ring[p.head]
	p.ring[p.head] = delivery{}
	p.head = (p.head + 1) & (len(p.ring) - 1)
	wasFull := p.n == pipeDepth
	p.n--
	p.mu.Unlock()
	if wasFull {
		signal(p.space)
	}
	return d, true
}

// signal leaves a token in a one-slot channel unless one is waiting.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

type listener struct {
	fabric  *Fabric
	addr    string
	backlog chan *endpoint

	mu     sync.Mutex
	closed bool
}

func (l *listener) Accept() (transport.Endpoint, error) {
	e, ok := <-l.backlog
	if !ok {
		return nil, transport.ErrClosed
	}
	return e, nil
}

// offer hands the passive side of a fresh link to the listener. The
// listener's lock orders it against Close, which closes the backlog: a
// listener that closed since the dial looked it up refuses the link. A
// full backlog fails the dial rather than blocking it.
func (l *listener) offer(b *endpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%w: %q", transport.ErrNoListener, l.addr)
	}
	select {
	case l.backlog <- b:
		return nil
	default:
		return fmt.Errorf("inproc: listener %q backlog full", l.addr)
	}
}

func (l *listener) Addr() string { return l.addr }

func (l *listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.fabric.mu.Lock()
	if l.fabric.listeners[l.addr] == l {
		delete(l.fabric.listeners, l.addr)
	}
	l.fabric.mu.Unlock()
	close(l.backlog)
	// Drain endpoints already queued but never accepted.
	for e := range l.backlog {
		e.Close()
	}
	return nil
}

type endpoint struct {
	fabric *Fabric
	local  string
	remote string
	peer   *endpoint
	in     *pipe
	out    *pipe
	done   chan struct{}

	closeOnce sync.Once
	sendMu    sync.Mutex
}

func (e *endpoint) Send(datagram []byte) error {
	if len(datagram) > transport.MaxDatagram {
		return transport.ErrTooLarge
	}
	select {
	case <-e.done:
		return transport.ErrClosed
	case <-e.peer.done:
		// The peer endpoint is gone; enqueueing would silently
		// black-hole the datagram. Fail so the network manager redials.
		return transport.ErrClosed
	default:
	}
	if !e.fabric.sameIsland(e.local, e.remote) {
		// Black-hole across a partition: the bytes vanish, like a
		// physical cable cut mid-stream. The caller learns through
		// timeouts, as on a real network.
		return nil
	}
	// Copy: the caller may reuse its buffer.
	buf := append([]byte(nil), datagram...)
	d := delivery{data: buf, readyAt: time.Now().Add(e.fabric.profile.delay(len(buf)))}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	//sdvmlint:allow lockhold -- sendMu orders concurrent senders into the link; blocking under it is the modeled back-pressure of a full pipe
	return e.out.push(d, e.done, e.peer.done)
}

// Recv returns the next datagram. Datagrams queued before a Close are
// still handed out; once the pipe is empty a closed endpoint reports
// ErrClosed.
func (e *endpoint) Recv() ([]byte, error) {
	for {
		if d, ok := e.in.pop(); ok {
			e.holdUntil(d.readyAt)
			return d.data, nil
		}
		select {
		case <-e.in.ready:
		case <-e.done:
			if d, ok := e.in.pop(); ok {
				e.holdUntil(d.readyAt)
				return d.data, nil
			}
			return nil, transport.ErrClosed
		}
	}
}

// holdUntil sleeps until the simulated arrival time.
func (e *endpoint) holdUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (e *endpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.fabric.mu.Lock()
		list := e.fabric.endpoints[e.local]
		for i, x := range list {
			if x == e {
				list[i] = list[len(list)-1]
				e.fabric.endpoints[e.local] = list[:len(list)-1]
				break
			}
		}
		e.fabric.mu.Unlock()
	})
	return nil
}

func (e *endpoint) RemoteAddr() string { return e.remote }

// Compile-time interface checks.
var (
	_ transport.Network  = (*Fabric)(nil)
	_ transport.Listener = (*listener)(nil)
	_ transport.Endpoint = (*endpoint)(nil)
)
