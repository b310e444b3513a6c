// Package msgbus implements the SDVM's message manager (paper §4).
//
// The message manager "is the central hub for information interchange
// with other sites. All communication is done between managers only":
// a manager builds an SDMessage, the message manager resolves the target
// site's logical id to a physical address by querying the cluster
// manager's cluster list, serializes the message, and passes it through
// the security layer to the network manager. Incoming datagrams are
// deserialized and dispatched to the addressed manager.
//
// On top of the paper's design the bus offers request/reply correlation
// (sequence numbers with waiter registration), which the prototype's
// managers implemented ad hoc.
package msgbus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/wire"
)

// DefaultTimeout bounds a Request when the caller passes zero.
const DefaultTimeout = 5 * time.Second

// Handler consumes messages addressed to one manager. Handlers run on
// the bus's dispatcher goroutine and must not block; long work is handed
// to the owning manager's goroutines.
type Handler interface {
	HandleMessage(m *wire.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m *wire.Message)

// HandleMessage calls f(m).
func (f HandlerFunc) HandleMessage(m *wire.Message) { f(m) }

// Resolver maps logical site ids to physical addresses — the cluster
// manager's cluster list seen through the message manager's eyes.
type Resolver interface {
	// PhysAddr resolves a logical id to a network address.
	PhysAddr(id types.SiteID) (string, error)
	// SiteIDs lists all known live sites (for Broadcast).
	SiteIDs() []types.SiteID
}

// Sender transmits one serialized datagram to a physical address — the
// network manager seen from above. Send must not retain the datagram
// after it returns: the bus serializes into pooled wire.Writer buffers
// and releases them the moment Send comes back, so an implementation
// that defers transmission must copy first (the network manager's
// batch envelopes do exactly that).
type Sender interface {
	//sdvm:borrowed datagram
	Send(physAddr string, datagram []byte) error
}

// Bus is one site's message manager.
type Bus struct {
	self     atomic.Uint32 // logical id; updates once at sign-on
	resolver Resolver
	sender   Sender

	seq atomic.Uint64
	mu  sync.Mutex
	// waiters holds one reply channel per in-flight request. guarded by mu
	waiters map[uint64]chan *wire.Message
	// closed marks the bus shut down for new requests. guarded by mu
	closed bool
	// pauseCh gates the dispatcher while non-nil (fault injection:
	// a stalled site stops consuming bus messages; Resume closes the
	// channel). Replies still complete — they bypass the dispatcher —
	// so a stalled site looks slow, not dead, to its own requests.
	// guarded by mu
	pauseCh chan struct{}

	handlersMu sync.RWMutex
	handlers   [types.ManagerCount]Handler

	inbox chan *wire.Message
	done  chan struct{}
	wg    sync.WaitGroup

	// The one count of each event: Stats reads sent, received and
	// dropped, and SetMetrics registers all five under their metric names.
	sent      metrics.Counter
	received  metrics.Counter
	dropped   metrics.Counter
	sentBytes metrics.Counter
	recvBytes metrics.Counter

	// met holds the per-kind counters; nil when metrics are disabled.
	// Written once by SetMetrics before Start, read-only afterwards.
	met *busMetrics
}

// busMetrics holds the registry-only per-kind counters, preallocated into
// kind-indexed tables so the per-message cost is one atomic add without a
// map lookup.
type busMetrics struct {
	outByKind []*metrics.Counter // indexed by wire.Kind
	inByKind  []*metrics.Counter // indexed by wire.Kind
}

// SetMetrics registers the bus's counters and installs the per-kind
// tables. Must be called before Start (like Register); a nil registry
// leaves the counters unnamed and the tables off.
func (b *Bus) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Register("bus.sent_msgs", &b.sent)
	reg.Register("bus.recv_msgs", &b.received)
	reg.Register("bus.sent_bytes", &b.sentBytes)
	reg.Register("bus.recv_bytes", &b.recvBytes)
	reg.Register("bus.dropped", &b.dropped)
	bm := &busMetrics{
		outByKind: make([]*metrics.Counter, wire.NumKinds()),
		inByKind:  make([]*metrics.Counter, wire.NumKinds()),
	}
	for k := 1; k < wire.NumKinds(); k++ {
		name := wire.Kind(k).String()
		bm.outByKind[k] = reg.Counter("bus.out." + name)
		bm.inByKind[k] = reg.Counter("bus.in." + name)
	}
	b.met = bm
}

// countOut records one outgoing serialized message of n bytes.
func (b *Bus) countOut(k wire.Kind, n int) {
	b.sent.Inc()
	b.sentBytes.Add(uint64(n))
	if bm := b.met; bm != nil && int(k) < len(bm.outByKind) {
		bm.outByKind[k].Inc()
	}
}

// countIn records one incoming (or loopback) message.
func (b *Bus) countIn(k wire.Kind) {
	b.received.Inc()
	if bm := b.met; bm != nil && int(k) < len(bm.inByKind) {
		bm.inByKind[k].Inc()
	}
}

// New returns a bus. SetSelf must be called once the site's logical id is
// known; Start launches the dispatcher.
func New(resolver Resolver, sender Sender) *Bus {
	return &Bus{
		resolver: resolver,
		sender:   sender,
		waiters:  make(map[uint64]chan *wire.Message),
		inbox:    make(chan *wire.Message, 1024),
		done:     make(chan struct{}),
	}
}

// SetSelf records this site's logical id (assigned at sign-on).
func (b *Bus) SetSelf(id types.SiteID) { b.self.Store(uint32(id)) }

// Self returns this site's logical id (InvalidSite before sign-on).
func (b *Bus) Self() types.SiteID { return types.SiteID(b.self.Load()) }

// Register installs the handler for a manager id. Must be called before
// Start; a second registration for the same manager replaces the first.
func (b *Bus) Register(id types.ManagerID, h Handler) {
	if !id.Valid() {
		panic(fmt.Sprintf("msgbus: registering invalid manager id %v", id))
	}
	b.handlersMu.Lock()
	b.handlers[id] = h
	b.handlersMu.Unlock()
}

// Start launches the dispatcher goroutine.
func (b *Bus) Start() {
	b.wg.Add(1)
	go b.dispatchLoop()
}

// Close stops the dispatcher and fails all outstanding requests.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	waiters := b.waiters
	b.waiters = make(map[uint64]chan *wire.Message)
	b.mu.Unlock()

	close(b.done)
	for _, ch := range waiters {
		close(ch)
	}
	b.wg.Wait()
}

// Pause stalls the dispatcher before its next message: handlers stop
// consuming until Resume. Messages keep queueing in the inbox (bounded),
// exactly like a site whose event loop stopped being scheduled. Used by
// the fault injector's stall fault; idempotent.
func (b *Bus) Pause() {
	b.mu.Lock()
	if b.pauseCh == nil && !b.closed {
		b.pauseCh = make(chan struct{})
	}
	b.mu.Unlock()
}

// Resume lifts a Pause. Idempotent; safe without a matching Pause.
func (b *Bus) Resume() {
	b.mu.Lock()
	ch := b.pauseCh
	b.pauseCh = nil
	b.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// gate blocks while the bus is paused; Close unblocks it too so a
// stalled site can still shut down.
func (b *Bus) gate() {
	b.mu.Lock()
	ch := b.pauseCh
	b.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case <-ch:
	case <-b.done:
	}
}

// Stats returns message counters (sent, received, dropped).
func (b *Bus) Stats() (sent, received, dropped uint64) {
	return b.sent.Load(), b.received.Load(), b.dropped.Load()
}

// NextSeq issues a fresh sender-unique sequence number.
func (b *Bus) NextSeq() uint64 { return b.seq.Add(1) }

// Send transmits a fire-and-forget message from srcMgr to dstMgr on site
// dst. dst == Self() delivers locally without serialization; Broadcast
// fans out to every site in the cluster list except this one.
func (b *Bus) Send(dst types.SiteID, dstMgr, srcMgr types.ManagerID, p wire.Payload) error {
	m := &wire.Message{
		Src:     b.Self(),
		Dst:     dst,
		SrcMgr:  srcMgr,
		DstMgr:  dstMgr,
		Seq:     b.NextSeq(),
		Payload: p,
	}
	return b.route(m)
}

// SendMsg transmits a prebuilt message (used for replies with Reply set).
func (b *Bus) SendMsg(m *wire.Message) error { return b.route(m) }

// Reply answers req with payload p from srcMgr, correlating by sequence
// number so the requester's waiter fires.
func (b *Bus) Reply(req *wire.Message, srcMgr types.ManagerID, p wire.Payload) error {
	return b.route(&wire.Message{
		Src:     b.Self(),
		Dst:     req.Src,
		SrcMgr:  srcMgr,
		DstMgr:  req.SrcMgr,
		Seq:     b.NextSeq(),
		Reply:   req.Seq,
		Payload: p,
	})
}

// ReplyErr answers req with a typed error.
func (b *Bus) ReplyErr(req *wire.Message, srcMgr types.ManagerID, code uint16, msg string) error {
	return b.Reply(req, srcMgr, &wire.ErrorReply{Code: code, Message: msg})
}

// Request sends p to dstMgr on site dst and waits for the correlated
// reply. A zero timeout means DefaultTimeout. An ErrorReply payload is
// converted into the corresponding Go error.
func (b *Bus) Request(dst types.SiteID, dstMgr, srcMgr types.ManagerID, p wire.Payload, timeout time.Duration) (*wire.Message, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	m := &wire.Message{
		Src:     b.Self(),
		Dst:     dst,
		SrcMgr:  srcMgr,
		DstMgr:  dstMgr,
		Seq:     b.NextSeq(),
		Payload: p,
	}
	ch := make(chan *wire.Message, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, types.ErrShutdown
	}
	b.waiters[m.Seq] = ch
	b.mu.Unlock()

	cleanup := func() {
		b.mu.Lock()
		delete(b.waiters, m.Seq)
		b.mu.Unlock()
	}

	if err := b.route(m); err != nil {
		cleanup()
		return nil, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case reply, ok := <-ch:
		cleanup()
		if !ok {
			return nil, types.ErrShutdown
		}
		if e, isErr := reply.Payload.(*wire.ErrorReply); isErr {
			return reply, e.Err()
		}
		return reply, nil
	case <-timer.C:
		cleanup()
		return nil, fmt.Errorf("%w: %v to %v/%v after %v",
			types.ErrTimeout, p.Kind(), dst, dstMgr, timeout)
	case <-b.done:
		cleanup()
		return nil, types.ErrShutdown
	}
}

// RequestAddr is Request aimed at a raw physical address, used only
// during sign-on when the target's logical id is not yet known.
func (b *Bus) RequestAddr(physAddr string, dstMgr, srcMgr types.ManagerID, p wire.Payload, timeout time.Duration) (*wire.Message, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	m := &wire.Message{
		Src:     b.Self(),
		Dst:     types.InvalidSite,
		SrcMgr:  srcMgr,
		DstMgr:  dstMgr,
		Seq:     b.NextSeq(),
		Payload: p,
	}
	ch := make(chan *wire.Message, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, types.ErrShutdown
	}
	b.waiters[m.Seq] = ch
	b.mu.Unlock()
	cleanup := func() {
		b.mu.Lock()
		delete(b.waiters, m.Seq)
		b.mu.Unlock()
	}

	w := wire.GetWriter(0)
	m.Encode(w)
	b.countOut(m.Payload.Kind(), w.Len())
	err := b.sender.Send(physAddr, w.Bytes())
	w.Release()
	if err != nil {
		cleanup()
		return nil, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case reply, ok := <-ch:
		cleanup()
		if !ok {
			return nil, types.ErrShutdown
		}
		if e, isErr := reply.Payload.(*wire.ErrorReply); isErr {
			return reply, e.Err()
		}
		return reply, nil
	case <-timer.C:
		cleanup()
		return nil, fmt.Errorf("%w: %v to %s after %v",
			types.ErrTimeout, p.Kind(), physAddr, timeout)
	case <-b.done:
		cleanup()
		return nil, types.ErrShutdown
	}
}

// route delivers m: locally for self, via the network otherwise,
// fanning out for Broadcast.
func (b *Bus) route(m *wire.Message) error {
	switch m.Dst {
	case b.Self():
		b.enqueue(m)
		return nil
	case types.Broadcast:
		var firstErr error
		for _, id := range b.resolver.SiteIDs() {
			if id == b.Self() {
				continue
			}
			clone := *m
			clone.Dst = id
			if err := b.sendRemote(&clone); err != nil && firstErr == nil {
				// A peer that departed between the roster snapshot and
				// this send (goodbye processed mid-fanout) is skipped,
				// not an error: the stats tick and other periodic
				// broadcasts must not fail over a site that is simply
				// gone.
				if errors.Is(err, types.ErrSiteLeft) {
					continue
				}
				firstErr = err
			}
		}
		return firstErr
	default:
		return b.sendRemote(m)
	}
}

// sendRemote serializes m into a pooled writer and hands the bytes to
// the sender. The buffer is released as soon as Send returns — the
// Sender no-retention contract makes that sound.
func (b *Bus) sendRemote(m *wire.Message) error {
	addr, err := b.resolver.PhysAddr(m.Dst)
	if err != nil {
		return err
	}
	w := wire.GetWriter(0)
	m.Encode(w)
	b.countOut(m.Payload.Kind(), w.Len())
	err = b.sender.Send(addr, w.Bytes())
	w.Release()
	return err
}

// OnDatagram is the network manager's delivery callback: parse and
// enqueue. Malformed datagrams are counted and dropped. The slice is
// only valid for the duration of the call (the network manager reuses
// its receive buffer); DecodeBytes copies what the message keeps.
//
//sdvm:borrowed datagram
func (b *Bus) OnDatagram(datagram []byte) {
	b.recvBytes.Add(uint64(len(datagram)))
	m, err := wire.DecodeBytes(datagram)
	if err != nil {
		b.dropped.Inc()
		return
	}
	b.enqueue(m)
}

func (b *Bus) enqueue(m *wire.Message) {
	b.countIn(m.Payload.Kind())

	// Replies complete waiting requests directly, bypassing the
	// dispatcher so a blocked handler can never deadlock a reply.
	if m.Reply != 0 {
		b.mu.Lock()
		ch, ok := b.waiters[m.Reply]
		if ok {
			delete(b.waiters, m.Reply)
		}
		b.mu.Unlock()
		if ok {
			ch <- m
			return
		}
		// Late reply after timeout: fall through to the dispatcher
		// instead of dropping. Replies can carry cargo that must not be
		// destroyed (a HelpReply hands over a whole microframe); the
		// destination manager decides whether a stale reply is salvage
		// or noise. Handlers' type switches ignore reply payloads they
		// don't expect.
	}

	select {
	case b.inbox <- m:
	case <-b.done:
	}
}

func (b *Bus) dispatchLoop() {
	defer b.wg.Done()
	for {
		select {
		case m := <-b.inbox:
			b.gate()
			b.dispatch(m)
		case <-b.done:
			// Drain what is already queued, then stop.
			for {
				select {
				case m := <-b.inbox:
					b.dispatch(m)
				default:
					return
				}
			}
		}
	}
}

func (b *Bus) dispatch(m *wire.Message) {
	if !m.DstMgr.Valid() {
		b.dropped.Inc()
		return
	}
	b.handlersMu.RLock()
	h := b.handlers[m.DstMgr]
	b.handlersMu.RUnlock()
	if h == nil {
		b.dropped.Inc()
		return
	}
	h.HandleMessage(m)
}
