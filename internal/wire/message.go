package wire

import (
	"fmt"

	"repro/internal/types"
)

// Kind tags the payload type of an SDMessage.
type Kind uint16

// Payload kinds, grouped by owning manager. The numbering is part of the
// wire format; append only. A retired kind keeps its number as a blank
// placeholder so every later kind keeps its value; decoding a retired
// kind fails like any unknown kind.
const (
	KindInvalid Kind = iota

	// Cluster manager (sign-on, cluster list, id allocation, liveness).
	KindSignOnRequest
	KindSignOnReply
	_ // 3: retired (broadcast site announcement)
	_ // 4: retired (broadcast sign-off notice)
	_ // 5: retired (broadcast load report)
	KindIDBlockRequest
	KindIDBlockReply
	KindPing
	KindPong

	// Scheduling manager (help requests, frame migration).
	KindHelpRequest
	KindHelpReply
	KindFramePush

	// Attraction memory (parameter application, object migration).
	KindApplyParam
	KindMemRead
	KindMemReadReply
	KindMemWrite
	KindMemWriteAck
	KindMemMigrate
	KindHomeUpdate
	KindFrameRelocate

	// Code manager (artifact distribution, on-the-fly compilation).
	KindCodeRequest
	KindCodeReply
	KindCodePublish

	// I/O manager (remote files, frontend).
	KindIORequest
	KindIOReply
	KindFrontendOutput

	// Program manager (registration, termination).
	KindProgramRegister
	KindProgramTerminated
	KindProgramQuery
	KindProgramInfo

	// Checkpoint / crash management.
	KindCheckpointStore
	KindCheckpointAck
	_ // 33: retired (broadcast crash notice)
	_ // 34: retired (pull-recovery request)
	_ // 35: retired (pull-recovery reply)

	// Generic.
	KindError
	KindBarrier

	// Accounting manager (paper §2.2/§6: renting out cluster time).
	KindUsageQuery
	KindUsageReply

	// Site manager status queries (paper §4: "query the status of the
	// local site").
	KindStatusQuery
	KindStatusReply

	// Frontend input (paper §4: "the I/O manager sends all output and
	// input requests to the front end").
	KindInputRequest
	KindInputReply

	// 44: retired (un-batched read-replica invalidation, superseded by
	// KindMemInvalidateBatch).
	_

	// Cluster-wide observability (paper §4: the site manager "provides
	// the functionality to query the status of the local site").
	KindMetricsQuery
	KindMetricsReply

	// Batched write-invalidation: all addresses one holder site must
	// drop travel in one round-trip instead of one per address.
	KindMemInvalidateBatch

	// Epidemic membership & load dissemination (internal/gossip): a
	// bounded digest of the sender's membership view pushed to a few
	// random peers per tick, and the anti-entropy delta a receiver
	// answers with when it knows fresher rows.
	KindGossipDigest
	KindGossipDelta

	// Home-based coherence (attraction memory v2): a reader faults in
	// a cached read replica from the owning site instead of migrating
	// the object, the owner answers with data + version (or a
	// redirect), and when ownership moves because a remote writer's
	// access heat dominates, the decayed heat table travels with the
	// object so the new owner does not restart cold.
	KindMemReadReplica
	KindMemReplicaData
	KindMemHeatTransfer

	kindCount
)

// NumKinds reports the number of defined message kinds (including
// KindInvalid), letting callers size per-kind lookup tables.
func NumKinds() int { return int(kindCount) }

var kindNames = map[Kind]string{
	KindInvalid:            "invalid",
	KindSignOnRequest:      "sign-on-request",
	KindSignOnReply:        "sign-on-reply",
	KindIDBlockRequest:     "id-block-request",
	KindIDBlockReply:       "id-block-reply",
	KindPing:               "ping",
	KindPong:               "pong",
	KindHelpRequest:        "help-request",
	KindHelpReply:          "help-reply",
	KindFramePush:          "frame-push",
	KindApplyParam:         "apply-param",
	KindMemRead:            "mem-read",
	KindMemReadReply:       "mem-read-reply",
	KindMemWrite:           "mem-write",
	KindMemWriteAck:        "mem-write-ack",
	KindMemMigrate:         "mem-migrate",
	KindHomeUpdate:         "home-update",
	KindFrameRelocate:      "frame-relocate",
	KindCodeRequest:        "code-request",
	KindCodeReply:          "code-reply",
	KindCodePublish:        "code-publish",
	KindIORequest:          "io-request",
	KindIOReply:            "io-reply",
	KindFrontendOutput:     "frontend-output",
	KindProgramRegister:    "program-register",
	KindProgramTerminated:  "program-terminated",
	KindProgramQuery:       "program-query",
	KindProgramInfo:        "program-info",
	KindCheckpointStore:    "checkpoint-store",
	KindCheckpointAck:      "checkpoint-ack",
	KindError:              "error",
	KindBarrier:            "barrier",
	KindUsageQuery:         "usage-query",
	KindUsageReply:         "usage-reply",
	KindStatusQuery:        "status-query",
	KindStatusReply:        "status-reply",
	KindInputRequest:       "input-request",
	KindInputReply:         "input-reply",
	KindMetricsQuery:       "metrics-query",
	KindMetricsReply:       "metrics-reply",
	KindMemInvalidateBatch: "mem-invalidate-batch",
	KindGossipDigest:       "gossip-digest",
	KindGossipDelta:        "gossip-delta",
	KindMemReadReplica:     "mem-read-replica",
	KindMemReplicaData:     "mem-replica-data",
	KindMemHeatTransfer:    "mem-heat-transfer",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// Payload is one SDMessage body. Implementations marshal themselves with
// the explicit codec; decoding goes through the kind registry.
type Payload interface {
	Kind() Kind
	MarshalWire(w *Writer)
	UnmarshalWire(r *Reader)
}

// payloadFactories maps each kind to a constructor for decoding.
var payloadFactories [kindCount]func() Payload

// register installs the factory for a payload kind. Called from init;
// panics on duplicates to catch wiring errors at startup.
func register(k Kind, f func() Payload) {
	if payloadFactories[k] != nil {
		panic(fmt.Sprintf("wire: duplicate payload registration for %v", k))
	}
	payloadFactories[k] = f
}

// NewPayload returns a zero payload value for kind k, or nil if k is not a
// registered payload kind.
func NewPayload(k Kind) Payload {
	if int(k) >= len(payloadFactories) || payloadFactories[k] == nil {
		return nil
	}
	return payloadFactories[k]()
}

// Message is a complete SDMessage: routing header plus payload. All
// inter-site (and, through the message manager, inter-manager)
// communication in the SDVM is carried by values of this type.
type Message struct {
	Src    types.SiteID    // logical source site
	Dst    types.SiteID    // logical destination site (may be Broadcast)
	SrcMgr types.ManagerID // sending manager
	DstMgr types.ManagerID // receiving manager
	Seq    uint64          // sender-unique sequence number
	Reply  uint64          // sequence number this message answers; 0 = unsolicited

	Payload Payload
}

func (m *Message) String() string {
	k := KindInvalid
	if m.Payload != nil {
		k = m.Payload.Kind()
	}
	return fmt.Sprintf("msg(%v %v→%v %v→%v seq=%d reply=%d)",
		k, m.Src, m.SrcMgr, m.Dst, m.DstMgr, m.Seq, m.Reply)
}

// headerSize is the fixed encoded size of the message header:
// src(4) dst(4) srcMgr(1) dstMgr(1) seq(8) reply(8) kind(2).
const headerSize = 4 + 4 + 1 + 1 + 8 + 8 + 2

// Encode serializes m into w.
//
//sdvm:hotpath
func (m *Message) Encode(w *Writer) {
	w.SiteID(m.Src)
	w.SiteID(m.Dst)
	w.Uint8(uint8(m.SrcMgr))
	w.Uint8(uint8(m.DstMgr))
	w.Uint64(m.Seq)
	w.Uint64(m.Reply)
	if m.Payload == nil {
		w.Uint16(uint16(KindInvalid))
		return
	}
	w.Uint16(uint16(m.Payload.Kind()))
	m.Payload.MarshalWire(w)
}

// EncodeBytes serializes m into a fresh buffer.
func (m *Message) EncodeBytes() []byte {
	w := NewWriter(headerSize + 64)
	m.Encode(w)
	return w.Bytes()
}

// Decode parses one message from r, materializing a fresh Message whose
// payload owns all of its memory — safe to retain and hand across
// goroutines, which is what the message bus does with it.
//
// Deliberately not //sdvm:hotpath: materializing costs per-message
// allocations by design (the bus retains decoded messages in reply
// waiters, the inbox, and handlers). The allocation-free decode path is
// Decoder.Decode, which reuses scratch and returns views.
func Decode(r *Reader) (*Message, error) {
	m := &Message{
		Src:    r.SiteID(),
		Dst:    r.SiteID(),
		SrcMgr: types.ManagerID(r.Uint8()),
		DstMgr: types.ManagerID(r.Uint8()),
		Seq:    r.Uint64(),
		Reply:  r.Uint64(),
	}
	kind := Kind(r.Uint16())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if kind == KindInvalid {
		return m, nil
	}
	p := NewPayload(kind)
	if p == nil {
		return nil, fmt.Errorf("%w: unknown payload kind %d", types.ErrBadMessage, kind)
	}
	p.UnmarshalWire(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.Payload = p
	return m, nil
}

// DecodeBytes parses one message from buf.
func DecodeBytes(buf []byte) (*Message, error) {
	return Decode(NewReader(buf))
}

// errUnknownKind is Decoder's static unknown-kind error. Unlike Decode's
// it carries no kind number — the trade for an allocation-free failure
// path on hostile input.
var errUnknownKind = fmt.Errorf("%w: unknown payload kind", types.ErrBadMessage)

// Decoder decodes messages without allocating: it keeps one reusable
// payload instance per kind, one Message, and an embedded alias-mode
// Reader, so steady-state decoding of well-formed traffic costs zero
// allocations (the wire benchmarks and the CI allocation gate pin this).
//
// Ownership contract: the returned Message, its payload, and every
// slice field — including byte fields, which are views of buf itself —
// are valid only until the next Decode call. Callers that retain
// anything (the message bus does) must use Decode/DecodeBytes instead,
// or deep-copy first. A Decoder is not safe for concurrent use; use one
// per goroutine.
type Decoder struct {
	r        Reader
	msg      Message
	payloads [kindCount]Payload
}

// NewDecoder returns a Decoder with its per-kind scratch payloads
// preallocated.
func NewDecoder() *Decoder {
	d := &Decoder{}
	for k := Kind(1); k < kindCount; k++ {
		d.payloads[k] = NewPayload(k)
	}
	return d
}

// Decode parses one message from buf into the Decoder's reused scratch.
// See the type comment for the aliasing contract.
//
//sdvm:hotpath
func (d *Decoder) Decode(buf []byte) (*Message, error) {
	d.r = Reader{buf: buf, alias: true}
	r := &d.r
	m := &d.msg
	m.Src = r.SiteID()
	m.Dst = r.SiteID()
	m.SrcMgr = types.ManagerID(r.Uint8())
	m.DstMgr = types.ManagerID(r.Uint8())
	m.Seq = r.Uint64()
	m.Reply = r.Uint64()
	kind := Kind(r.Uint16())
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.Payload = nil
	if kind == KindInvalid {
		return m, nil
	}
	if int(kind) >= len(d.payloads) || d.payloads[kind] == nil {
		return nil, errUnknownKind
	}
	p := d.payloads[kind]
	p.UnmarshalWire(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.Payload = p
	return m, nil
}
