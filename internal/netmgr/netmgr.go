// Package netmgr implements the SDVM's network manager (paper §4).
//
// The network manager "sends and receives packets to and from the
// network. To receive, it features a listener, which spawns a new thread
// every time an incoming connection is established." It is the lowest
// layer of the SDVM and "works with physical (ip) addresses only" — it
// knows nothing about logical site ids, managers, or message contents.
//
// Outgoing datagrams pass through the security layer's SealInPlace,
// incoming ones through OpenInPlace, realizing the paper's placement of
// the security
// manager between message manager and network manager. Connections are
// cached per physical address and re-dialed transparently after failures,
// amortizing TCP's connection-setup overhead (the paper's main complaint
// about TCP for SDVM-sized messages).
package netmgr

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Envelope tags. Every plaintext datagram on the wire starts with one
// tag byte so a receiver can always tell a single message from a batch.
const (
	tagSingle = 0x00
	tagBatch  = 0x01 // followed by uint32-length-prefixed messages
)

// envelopeCap is the size past which a pending batch envelope takes no
// further records. A larger datagram still travels, in an envelope of
// its own.
const envelopeCap = 64 << 10

// peer is everything the manager keeps about one remote listen address:
// the cached connection, the send in flight, the envelope collecting
// the sends that arrived behind it, and the byte counter.
type peer struct {
	bytes *metrics.Counter // net.peer_bytes.<addr>; nil with metrics off

	mu   sync.Mutex
	cond sync.Cond          // on mu; broadcast whenever a transmission ends
	ep   transport.Endpoint // guarded by mu; dialed connection, nil when none
	busy bool               // guarded by mu; a transmission is in flight
	next *batch             // guarded by mu; envelope open for appending, nil when none
	gone bool               // guarded by mu; retired by Forget or Close
}

// batch is one envelope shared by several Send calls. The caller that
// opened it transmits it once the peer's in-flight send returns; the
// callers that appended to it wait for that transmission's error.
type batch struct {
	env   *wire.Writer
	count int   // records in env
	refs  int   // callers that have not yet read err
	done  bool  // env was transmitted (or failed); err is final
	err   error // the transmission's result
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// Handler consumes one verified incoming datagram. It is called from a
// per-connection receive goroutine; implementations hand off long work.
type Handler func(datagram []byte)

// Manager moves sealed datagrams between this site and peers.
type Manager struct {
	net     transport.Network
	sec     security.Layer
	handler Handler

	mu       sync.Mutex
	listener transport.Listener
	peers    map[string]*peer            // guarded by mu; by remote listen address
	live     map[transport.Endpoint]bool // every endpoint with a recv loop
	closed   bool
	wg       sync.WaitGroup

	// met holds the metrics instruments, all nil when metrics are
	// disabled. Written once by SetMetrics before Listen, read-only
	// afterwards.
	met netMetrics

	// secPrefix/secSuffix cache the security layer's overheads so every
	// envelope is laid out with exactly the headroom the seal needs.
	secPrefix int
	secSuffix int
}

// netMetrics bundles the datagram-level instruments; every field is
// nil-safe, so the zero value disables collection.
type netMetrics struct {
	reg         *metrics.Registry
	sendDgrams  *metrics.Counter
	recvDgrams  *metrics.Counter
	sendBytes   *metrics.Counter
	recvBytes   *metrics.Counter
	sendErrs    *metrics.Counter
	openRejects *metrics.Counter
	coalesced   *metrics.Counter
}

// SetMetrics installs the instruments. Must be called before Listen; a nil
// registry leaves metrics disabled.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	m.met = netMetrics{
		reg:         reg,
		sendDgrams:  reg.Counter("net.send_datagrams"),
		recvDgrams:  reg.Counter("net.recv_datagrams"),
		sendBytes:   reg.Counter("net.send_bytes"),
		recvBytes:   reg.Counter("net.recv_bytes"),
		sendErrs:    reg.Counter("net.send_errors"),
		openRejects: reg.Counter("net.open_rejects"),
		coalesced:   reg.Counter("net.coalesced"),
	}
}

// New returns a network manager using net for links and sec for sealing.
func New(net transport.Network, sec security.Layer, handler Handler) *Manager {
	return &Manager{
		net:       net,
		sec:       sec,
		handler:   handler,
		peers:     make(map[string]*peer),
		live:      make(map[transport.Endpoint]bool),
		secPrefix: sec.PrefixOverhead(),
		secSuffix: sec.SuffixOverhead(),
	}
}

// peer returns the state kept for physAddr, creating it on first use.
func (m *Manager) peer(physAddr string) (*peer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, transport.ErrClosed
	}
	p, ok := m.peers[physAddr]
	if !ok {
		p = &peer{bytes: m.met.reg.Counter("net.peer_bytes." + physAddr)}
		p.cond.L = &p.mu
		m.peers[physAddr] = p
	}
	return p, nil
}

// Listen binds the site's listening point and starts the accept loop.
// It returns the bound physical address (resolving ":0" style requests).
func (m *Manager) Listen(addr string) (string, error) {
	l, err := m.net.Listen(addr)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		l.Close()
		return "", transport.ErrClosed
	}
	m.listener = l
	m.mu.Unlock()

	m.wg.Add(1)
	go m.acceptLoop(l)
	return l.Addr(), nil
}

func (m *Manager) acceptLoop(l transport.Listener) {
	defer m.wg.Done()
	for {
		ep, err := l.Accept()
		if err != nil {
			return
		}
		m.track(ep)
	}
}

// track registers an endpoint and starts its receive loop; endpoints of
// a closed manager are closed immediately.
func (m *Manager) track(ep transport.Endpoint) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		ep.Close()
		return
	}
	m.live[ep] = true
	m.mu.Unlock()
	m.wg.Add(1)
	go m.recvLoop(ep)
}

// recvLoop drains one endpoint, opening and delivering each datagram.
// Datagrams that fail authentication are dropped silently — an attacker
// must not learn which guesses came close (and a cluster-config mistake
// shows up as timeouts, which the managers already handle).
func (m *Manager) recvLoop(ep transport.Endpoint) {
	defer m.wg.Done()
	defer func() {
		ep.Close()
		m.mu.Lock()
		delete(m.live, ep)
		m.mu.Unlock()
	}()
	for {
		sealed, err := ep.Recv()
		if err != nil {
			return
		}
		m.met.recvDgrams.Inc()
		m.met.recvBytes.Add(uint64(len(sealed)))
		// The receive loop exclusively owns sealed until the next Recv
		// (the Endpoint contract), and deliver hands every record to
		// the handler synchronously — so the destructive in-place open
		// is safe and saves a full-datagram copy per receive.
		plain, err := m.sec.OpenInPlace(sealed)
		if err != nil {
			m.met.openRejects.Inc()
			continue
		}
		m.deliver(plain)
	}
}

// deliver unpacks one opened envelope and hands each contained message
// to the handler. The unpacking itself is allocation-free (each record
// is a subslice of the envelope).
//
//sdvm:hotpath
//sdvm:borrowed plain
func (m *Manager) deliver(plain []byte) {
	if len(plain) == 0 {
		return
	}
	switch plain[0] {
	case tagSingle:
		m.handler(plain[1:]) //sdvmlint:allow allocfree -- handler is the bus dispatch hook; its cost is the receive path's, not the envelope decoder's
	case tagBatch:
		buf := plain[1:]
		for len(buf) >= 4 {
			n := binary.BigEndian.Uint32(buf[:4])
			buf = buf[4:]
			if uint64(n) > uint64(len(buf)) {
				return // truncated batch: drop the remainder
			}
			m.handler(buf[:n]) //sdvmlint:allow allocfree -- handler is the bus dispatch hook; its cost is the receive path's, not the envelope decoder's
			buf = buf[n:]
		}
	default:
		// Unknown envelope tag (future protocol revision): drop.
	}
}

// Send seals and transmits one datagram to the peer listening at
// physAddr and returns the transport's verdict on the envelope that
// carried it. An idle peer gets the datagram at once, alone in its
// envelope. A Send that finds another send to the same peer in flight
// appends its datagram to that peer's pending envelope instead; the
// caller that opened the envelope transmits it as one batch the moment
// the in-flight send returns, and every caller whose datagram rode it
// gets that transmission's error. Batching is clocked by the link
// itself: no datagram ever waits for anything but a send that was
// already under way.
func (m *Manager) Send(physAddr string, datagram []byte) error {
	p, err := m.peer(physAddr)
	if err == nil {
		err = m.sendTo(p, physAddr, datagram)
	}
	if err != nil {
		m.met.sendErrs.Inc()
		return err
	}
	m.met.sendDgrams.Inc()
	m.met.sendBytes.Add(uint64(len(datagram)))
	p.bytes.Add(uint64(len(datagram)))
	return nil
}

// sendTo is Send's group commit: transmit at once when p is idle,
// otherwise join (or open) p's pending envelope and share its verdict.
// Whoever sets p.busy drops the lock while the transport works and, on
// clearing it, wakes everyone waiting on p — riders of the envelope
// just sent and the opener of the next.
func (m *Manager) sendTo(p *peer, physAddr string, datagram []byte) error {
	p.mu.Lock()
	// A pending envelope too full for this datagram leaves with the
	// next transmission, whose end wakes us.
	for p.next != nil && p.next.env.Len()+len(datagram) > envelopeCap {
		p.cond.Wait()
	}
	if p.next == nil && !p.busy {
		p.busy = true
		ep := p.ep
		p.mu.Unlock()
		env := wire.GetWriter(m.secPrefix + 1 + len(datagram) + m.secSuffix)
		env.Zero(m.secPrefix)
		env.Uint8(tagSingle)
		env.Raw(datagram)
		err := m.transmit(p, physAddr, ep, env)
		p.mu.Lock()
		p.busy = false
		p.cond.Broadcast()
		p.mu.Unlock()
		return err
	}

	opened := p.next == nil
	if opened {
		p.next = m.openBatch(len(datagram))
	}
	b := p.next
	appendRecord(b.env, datagram)
	b.count++
	b.refs++
	if opened {
		for p.busy {
			p.cond.Wait()
		}
		p.busy = true
		p.next = nil
		ep := p.ep
		p.mu.Unlock()
		if b.count > 1 {
			m.met.coalesced.Add(uint64(b.count))
		}
		err := m.transmit(p, physAddr, ep, b.env)
		p.mu.Lock()
		p.busy = false
		b.err, b.done = err, true
		p.cond.Broadcast()
	} else {
		for !b.done {
			p.cond.Wait()
		}
	}
	err := b.err
	if b.refs--; b.refs == 0 {
		batchPool.Put(b)
	}
	p.mu.Unlock()
	return err
}

// openBatch lays out a fresh batch envelope in a pooled writer: seal
// headroom, then the batch tag. Records follow via appendRecord.
func (m *Manager) openBatch(firstRecord int) *batch {
	b := batchPool.Get().(*batch)
	*b = batch{env: wire.GetWriter(m.secPrefix + 1 + 4 + firstRecord + m.secSuffix)}
	b.env.Zero(m.secPrefix)
	b.env.Uint8(tagBatch)
	return b
}

// appendRecord copies one length-prefixed datagram into the envelope:
// a bounds-checked copy into pooled storage, nothing else. The copy is
// also the aliasing firewall — the envelope never references the
// caller's datagram buffer, which the caller reuses or releases the
// moment Send returns.
//
//sdvm:hotpath
func appendRecord(env *wire.Writer, datagram []byte) {
	env.Uint32BE(uint32(len(datagram)))
	env.Raw(datagram)
}

// transmit seals and sends one envelope to p, taking ownership of env:
// its pooled buffer is released once the transport no longer references
// it (Endpoint.Send must not retain the slice after returning). The
// seal happens inside env's own storage — nonce into the headroom,
// ciphertext over the records, tag into spare capacity — so the whole
// send path performs zero allocations. ep is the connection found
// cached; with none, or when that one turns out stale (the peer may
// have restarted), one fresh dial is attempted before giving up. p.busy
// keeps this to one goroutine per peer at a time.
func (m *Manager) transmit(p *peer, physAddr string, ep transport.Endpoint, env *wire.Writer) error {
	defer env.Release()

	env.Reserve(m.secSuffix)
	sealed, err := m.sec.SealInPlace(env.Bytes())
	if err != nil {
		return err
	}

	if ep != nil && ep.Send(sealed) == nil {
		return nil
	}
	ep, err = m.dial(p, physAddr)
	if err != nil {
		return err
	}
	if err := ep.Send(sealed); err != nil {
		p.mu.Lock()
		if p.ep == ep {
			p.ep = nil
		}
		p.mu.Unlock()
		ep.Close()
		return fmt.Errorf("netmgr send to %s: %w", physAddr, err)
	}
	return nil
}

// dial connects to physAddr and caches the connection in p, replacing
// (and closing) any previous one.
func (m *Manager) dial(p *peer, physAddr string) (transport.Endpoint, error) {
	ep, err := m.net.Dial(physAddr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.gone {
		p.mu.Unlock()
		ep.Close()
		return nil, transport.ErrClosed
	}
	old := p.ep
	p.ep = ep
	p.mu.Unlock()
	if old != nil {
		old.Close()
	}

	// Replies and peer-initiated traffic can arrive on our dialed
	// connection too; drain it like an accepted one.
	m.track(ep)
	return ep, nil
}

// retire marks p unusable and closes its connection. Sends already
// queued behind p still complete: each pending envelope has a caller
// that transmits it, now to an error.
func (p *peer) retire() {
	p.mu.Lock()
	ep := p.ep
	p.ep, p.gone = nil, true
	p.mu.Unlock()
	if ep != nil {
		ep.Close()
	}
}

// Forget drops everything kept about the peer at physAddr and closes
// the cached connection (used when a peer signs off or is declared
// crashed). A later Send to the same address starts from a fresh dial.
func (m *Manager) Forget(physAddr string) {
	m.mu.Lock()
	p := m.peers[physAddr]
	delete(m.peers, physAddr)
	m.mu.Unlock()
	if p != nil {
		p.retire()
	}
}

// HasPeer reports whether the manager keeps any state (connection,
// pending envelope, counter) for physAddr.
func (m *Manager) HasPeer(physAddr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peers[physAddr] != nil
}

// Close shuts the manager down: the listener stops, all connections
// close, and Close blocks until every receive goroutine exited.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	l := m.listener
	peers := m.peers
	m.peers = nil
	conns := make([]transport.Endpoint, 0, len(m.live))
	for ep := range m.live {
		conns = append(conns, ep)
	}
	m.mu.Unlock()

	for _, p := range peers {
		p.retire()
	}
	if l != nil {
		l.Close()
	}
	// Close connections concurrently: a large site holds hundreds of
	// endpoints, and each Close may briefly contend with live peer
	// traffic — serialized, that contention compounds into a teardown
	// measured in tens of seconds at 256 sites.
	var cwg sync.WaitGroup
	for _, ep := range conns {
		cwg.Add(1)
		go func(ep transport.Endpoint) {
			defer cwg.Done()
			ep.Close()
		}(ep)
	}
	cwg.Wait()
	m.wg.Wait()
}
