package wire

import "repro/internal/types"

// This file defines every payload type in the SDVM protocol, grouped by
// owning manager, together with its wire encoding. Each type registers a
// decode factory in init.

func init() {
	register(KindSignOnRequest, func() Payload { return &SignOnRequest{} })
	register(KindSignOnReply, func() Payload { return &SignOnReply{} })
	register(KindIDBlockRequest, func() Payload { return &IDBlockRequest{} })
	register(KindIDBlockReply, func() Payload { return &IDBlockReply{} })
	register(KindPing, func() Payload { return &Ping{} })
	register(KindPong, func() Payload { return &Pong{} })

	register(KindHelpRequest, func() Payload { return &HelpRequest{} })
	register(KindHelpReply, func() Payload { return &HelpReply{} })
	register(KindFramePush, func() Payload { return &FramePush{} })

	register(KindApplyParam, func() Payload { return &ApplyParam{} })
	register(KindMemRead, func() Payload { return &MemRead{} })
	register(KindMemReadReply, func() Payload { return &MemReadReply{} })
	register(KindMemWrite, func() Payload { return &MemWrite{} })
	register(KindMemWriteAck, func() Payload { return &MemWriteAck{} })
	register(KindMemMigrate, func() Payload { return &MemMigrate{} })
	register(KindHomeUpdate, func() Payload { return &HomeUpdate{} })
	register(KindFrameRelocate, func() Payload { return &FrameRelocate{} })

	register(KindCodeRequest, func() Payload { return &CodeRequest{} })
	register(KindCodeReply, func() Payload { return &CodeReply{} })
	register(KindCodePublish, func() Payload { return &CodePublish{} })

	register(KindIORequest, func() Payload { return &IORequest{} })
	register(KindIOReply, func() Payload { return &IOReply{} })
	register(KindFrontendOutput, func() Payload { return &FrontendOutput{} })

	register(KindProgramRegister, func() Payload { return &ProgramRegister{} })
	register(KindProgramTerminated, func() Payload { return &ProgramTerminated{} })
	register(KindProgramQuery, func() Payload { return &ProgramQuery{} })
	register(KindProgramInfo, func() Payload { return &ProgramInfo{} })

	register(KindCheckpointStore, func() Payload { return &CheckpointStore{} })
	register(KindCheckpointAck, func() Payload { return &CheckpointAck{} })

	register(KindError, func() Payload { return &ErrorReply{} })
	register(KindBarrier, func() Payload { return &Barrier{} })
}

// ---------------------------------------------------------------------------
// Cluster manager payloads (paper §3.4, §4).

// SignOnRequest announces a joining site to a site already in the cluster
// ("with the help request, site A gives information about itself").
type SignOnRequest struct {
	PhysAddr string           // where the network manager listens
	Platform types.PlatformID // simulated platform type
	Speed    float64          // relative processing speed
	Reliable bool             // joins the reliable core (paper §2.2)
}

func (*SignOnRequest) Kind() Kind { return KindSignOnRequest }

func (p *SignOnRequest) MarshalWire(w *Writer) {
	w.String(p.PhysAddr)
	w.Uint16(uint16(p.Platform))
	w.Float64(p.Speed)
	w.Bool(p.Reliable)
}

func (p *SignOnRequest) UnmarshalWire(r *Reader) {
	p.PhysAddr = r.String()
	p.Platform = types.PlatformID(r.Uint16())
	p.Speed = r.Float64()
	p.Reliable = r.Bool()
}

// SignOnReply assigns the new site its unique logical id and a snapshot of
// the current cluster composition.
type SignOnReply struct {
	Assigned types.SiteID
	Cluster  []types.SiteInfo
}

func (*SignOnReply) Kind() Kind { return KindSignOnReply }

func (p *SignOnReply) MarshalWire(w *Writer) {
	w.SiteID(p.Assigned)
	w.Uint32(uint32(len(p.Cluster)))
	for i := range p.Cluster {
		marshalSiteInfo(w, &p.Cluster[i])
	}
}

func (p *SignOnReply) UnmarshalWire(r *Reader) {
	p.Assigned = r.SiteID()
	n := r.SliceLen(siteInfoWireSize, "cluster list")
	p.Cluster = grow(p.Cluster, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Cluster[i] = unmarshalSiteInfo(r)
	}
}

// IDBlockRequest asks an id server for a contingent of free logical ids
// (paper §4, cluster manager: "provide several site id servers, which are
// given a contingent of free ids").
type IDBlockRequest struct {
	Want uint32 // number of ids requested
}

func (*IDBlockRequest) Kind() Kind { return KindIDBlockRequest }

func (p *IDBlockRequest) MarshalWire(w *Writer) { w.Uint32(p.Want) }

func (p *IDBlockRequest) UnmarshalWire(r *Reader) { p.Want = r.Uint32() }

// IDBlockReply grants a half-open range [First, First+Count) of logical ids.
type IDBlockReply struct {
	First types.SiteID
	Count uint32
}

func (*IDBlockReply) Kind() Kind { return KindIDBlockReply }

func (p *IDBlockReply) MarshalWire(w *Writer) {
	w.SiteID(p.First)
	w.Uint32(p.Count)
}

func (p *IDBlockReply) UnmarshalWire(r *Reader) {
	p.First = r.SiteID()
	p.Count = r.Uint32()
}

// Ping is a liveness probe from the crash-detection heartbeat ([4]).
type Ping struct {
	Nonce uint64
}

func (*Ping) Kind() Kind { return KindPing }

func (p *Ping) MarshalWire(w *Writer) { w.Uint64(p.Nonce) }

func (p *Ping) UnmarshalWire(r *Reader) { p.Nonce = r.Uint64() }

// Pong answers a Ping, carrying the same nonce.
type Pong struct {
	Nonce uint64
}

func (*Pong) Kind() Kind { return KindPong }

func (p *Pong) MarshalWire(w *Writer) { w.Uint64(p.Nonce) }

func (p *Pong) UnmarshalWire(r *Reader) { p.Nonce = r.Uint64() }

// ---------------------------------------------------------------------------
// Scheduling manager payloads (paper §3.3, §4).

// HelpRequest is an idle site's plea for work: "the scheduling manager
// will then contact other sites to request executable microframes".
type HelpRequest struct {
	Requester types.SiteID
	Load      float64 // requester's load, for the peer's cluster list
	Speed     float64 // requester's relative speed
}

func (*HelpRequest) Kind() Kind { return KindHelpRequest }

func (p *HelpRequest) MarshalWire(w *Writer) {
	w.SiteID(p.Requester)
	w.Float64(p.Load)
	w.Float64(p.Speed)
}

func (p *HelpRequest) UnmarshalWire(r *Reader) {
	p.Requester = r.SiteID()
	p.Load = r.Float64()
	p.Speed = r.Float64()
}

// HelpReply answers a HelpRequest: either a batch of executable
// microframes or a can't-help flag (paper §4). Carrying several frames
// per round-trip amortizes the request latency when the granter's queue
// is deep (bulk work transfer, as in work-stealing VMs).
type HelpReply struct {
	CantHelp bool
	Frames   []*Microframe // non-empty when CantHelp is false
}

func (*HelpReply) Kind() Kind { return KindHelpReply }

func (p *HelpReply) MarshalWire(w *Writer) {
	w.Bool(p.CantHelp)
	if p.CantHelp {
		return
	}
	w.Uint32(uint32(len(p.Frames)))
	for _, f := range p.Frames {
		f.MarshalWire(w)
	}
}

func (p *HelpReply) UnmarshalWire(r *Reader) {
	p.CantHelp = r.Bool()
	if p.CantHelp {
		p.Frames = p.Frames[:0]
		return
	}
	n := r.SliceLen(microframeWireSize, "help reply batch")
	p.Frames = growFrames(p.Frames, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Frames[i].UnmarshalWire(r)
	}
}

// FramePush proactively migrates an executable microframe to another site
// (load balancing, sign-off relocation of executable frames).
type FramePush struct {
	Frame *Microframe
}

func (*FramePush) Kind() Kind { return KindFramePush }

func (p *FramePush) MarshalWire(w *Writer) { p.Frame.MarshalWire(w) }

func (p *FramePush) UnmarshalWire(r *Reader) {
	if p.Frame == nil {
		//sdvmlint:allow allocfree -- fills the reusable frame slot once; steady-state decode reuses the instance
		p.Frame = &Microframe{}
	}
	p.Frame.UnmarshalWire(r)
}

// ---------------------------------------------------------------------------
// Attraction memory payloads (paper §3.1, §4).

// ApplyParam delivers one microthread result to a waiting microframe's
// parameter slot — the SDVM's fundamental dataflow message.
type ApplyParam struct {
	Dst  Target
	Data []byte
}

func (*ApplyParam) Kind() Kind { return KindApplyParam }

func (p *ApplyParam) MarshalWire(w *Writer) {
	p.Dst.marshal(w)
	w.Bytes32(p.Data)
}

func (p *ApplyParam) UnmarshalWire(r *Reader) {
	p.Dst.unmarshal(r)
	p.Data = r.Bytes32()
}

// MemRead attracts a memory object to the requester: the owner hands
// the object over (write intent). Sent first to the object's homesite
// (decoded from the address); the homesite either answers or redirects
// to the current owner. Reads that only need a copy use MemReadReplica.
type MemRead struct {
	Addr types.GlobalAddr
}

func (*MemRead) Kind() Kind { return KindMemRead }

func (p *MemRead) MarshalWire(w *Writer) { w.Addr(p.Addr) }

func (p *MemRead) UnmarshalWire(r *Reader) { p.Addr = r.Addr() }

// MemReadReply answers MemRead: the object, a redirect to its current
// owner, or not-found.
type MemReadReply struct {
	Found    bool
	Redirect types.SiteID // nonzero: ask this site instead
	Object   MemObject    // valid when Found and Redirect==0
}

func (*MemReadReply) Kind() Kind { return KindMemReadReply }

func (p *MemReadReply) MarshalWire(w *Writer) {
	w.Bool(p.Found)
	w.SiteID(p.Redirect)
	if p.Found && p.Redirect == types.InvalidSite {
		p.Object.marshal(w)
	}
}

func (p *MemReadReply) UnmarshalWire(r *Reader) {
	p.Found = r.Bool()
	p.Redirect = r.SiteID()
	if p.Found && p.Redirect == types.InvalidSite {
		p.Object.unmarshal(r)
	}
}

// MemWrite updates a remote memory object in place (sent to its current
// owner or homesite).
type MemWrite struct {
	Addr   types.GlobalAddr
	Offset uint32
	Data   []byte
}

func (*MemWrite) Kind() Kind { return KindMemWrite }

func (p *MemWrite) MarshalWire(w *Writer) {
	w.Addr(p.Addr)
	w.Uint32(p.Offset)
	w.Bytes32(p.Data)
}

func (p *MemWrite) UnmarshalWire(r *Reader) {
	p.Addr = r.Addr()
	p.Offset = r.Uint32()
	p.Data = r.Bytes32()
}

// MemWriteAck confirms a MemWrite (or reports redirect/not-found).
type MemWriteAck struct {
	OK       bool
	Redirect types.SiteID
}

func (*MemWriteAck) Kind() Kind { return KindMemWriteAck }

func (p *MemWriteAck) MarshalWire(w *Writer) {
	w.Bool(p.OK)
	w.SiteID(p.Redirect)
}

func (p *MemWriteAck) UnmarshalWire(r *Reader) {
	p.OK = r.Bool()
	p.Redirect = r.SiteID()
}

// MemMigrate transfers ownership of memory objects to the destination
// site (attraction on write intent, sign-off relocation).
type MemMigrate struct {
	Objects []MemObject
}

func (*MemMigrate) Kind() Kind { return KindMemMigrate }

func (p *MemMigrate) MarshalWire(w *Writer) {
	w.Uint32(uint32(len(p.Objects)))
	for i := range p.Objects {
		p.Objects[i].marshal(w)
	}
}

func (p *MemMigrate) UnmarshalWire(r *Reader) {
	n := r.SliceLen(memObjectWireSize, "migrate list")
	p.Objects = grow(p.Objects, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Objects[i].unmarshal(r)
	}
}

// HomeUpdate informs an object's homesite that ownership moved, keeping
// the homesite directory (paper §4, [5]) current.
type HomeUpdate struct {
	Addr  types.GlobalAddr
	Owner types.SiteID
}

func (*HomeUpdate) Kind() Kind { return KindHomeUpdate }

func (p *HomeUpdate) MarshalWire(w *Writer) {
	w.Addr(p.Addr)
	w.SiteID(p.Owner)
}

func (p *HomeUpdate) UnmarshalWire(r *Reader) {
	p.Addr = r.Addr()
	p.Owner = r.SiteID()
}

// FrameRelocate moves incomplete (waiting) microframes to another site —
// used at sign-off: "all microframes ... have to be relocated to other
// sites before shutdown" (paper §3.4).
type FrameRelocate struct {
	Frames []*Microframe
}

func (*FrameRelocate) Kind() Kind { return KindFrameRelocate }

func (p *FrameRelocate) MarshalWire(w *Writer) {
	w.Uint32(uint32(len(p.Frames)))
	for _, f := range p.Frames {
		f.MarshalWire(w)
	}
}

func (p *FrameRelocate) UnmarshalWire(r *Reader) {
	n := r.SliceLen(microframeWireSize, "relocate list")
	p.Frames = growFrames(p.Frames, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Frames[i].UnmarshalWire(r)
	}
}

// ---------------------------------------------------------------------------
// Code manager payloads (paper §3.4, §4).

// CodeRequest asks a peer for the microthread artifact matching the
// requesting site's platform; "the request to other sites contains
// information about the local platform id".
type CodeRequest struct {
	Thread   types.ThreadID
	Platform types.PlatformID
}

func (*CodeRequest) Kind() Kind { return KindCodeRequest }

func (p *CodeRequest) MarshalWire(w *Writer) {
	w.ThreadID(p.Thread)
	w.Uint16(uint16(p.Platform))
}

func (p *CodeRequest) UnmarshalWire(r *Reader) {
	p.Thread = r.ThreadID()
	p.Platform = types.PlatformID(r.Uint16())
}

// CodeReply answers a CodeRequest: a platform-matching binary artifact,
// the portable source (to be compiled on the fly), or not-found.
type CodeReply struct {
	Found    bool
	IsSource bool             // true: Artifact is source, compile locally
	Platform types.PlatformID // platform of the artifact (PlatformAny for source)
	Artifact []byte           // opaque artifact token / source text
	FuncName string           // registry name of the implementation
}

func (*CodeReply) Kind() Kind { return KindCodeReply }

func (p *CodeReply) MarshalWire(w *Writer) {
	w.Bool(p.Found)
	w.Bool(p.IsSource)
	w.Uint16(uint16(p.Platform))
	w.Bytes32(p.Artifact)
	w.String(p.FuncName)
}

func (p *CodeReply) UnmarshalWire(r *Reader) {
	p.Found = r.Bool()
	p.IsSource = r.Bool()
	p.Platform = types.PlatformID(r.Uint16())
	p.Artifact = r.Bytes32()
	p.FuncName = r.String()
}

// CodePublish uploads a freshly compiled artifact to a code-distribution
// site "so that other sites will receive the binary code at first go".
type CodePublish struct {
	Thread   types.ThreadID
	Platform types.PlatformID
	Artifact []byte
	FuncName string
}

func (*CodePublish) Kind() Kind { return KindCodePublish }

func (p *CodePublish) MarshalWire(w *Writer) {
	w.ThreadID(p.Thread)
	w.Uint16(uint16(p.Platform))
	w.Bytes32(p.Artifact)
	w.String(p.FuncName)
}

func (p *CodePublish) UnmarshalWire(r *Reader) {
	p.Thread = r.ThreadID()
	p.Platform = types.PlatformID(r.Uint16())
	p.Artifact = r.Bytes32()
	p.FuncName = r.String()
}

// ---------------------------------------------------------------------------
// I/O manager payloads (paper §4).

// IOOp enumerates remote file operations.
type IOOp uint8

// File operations routed by global file handle.
const (
	IOOpOpen IOOp = iota
	IOOpRead
	IOOpWrite
	IOOpClose
)

// IORequest accesses a file through its global handle; "the access is
// automatically rerouted to the appropriate site".
type IORequest struct {
	Op     IOOp
	Handle types.GlobalAddr // file handle (encodes the owning site)
	Name   string           // for IOOpOpen
	Offset int64
	Length int32 // for IOOpRead
	Data   []byte
}

func (*IORequest) Kind() Kind { return KindIORequest }

func (p *IORequest) MarshalWire(w *Writer) {
	w.Uint8(uint8(p.Op))
	w.Addr(p.Handle)
	w.String(p.Name)
	w.Int64(p.Offset)
	w.Int32(p.Length)
	w.Bytes32(p.Data)
}

func (p *IORequest) UnmarshalWire(r *Reader) {
	p.Op = IOOp(r.Uint8())
	p.Handle = r.Addr()
	p.Name = r.String()
	p.Offset = r.Int64()
	p.Length = r.Int32()
	p.Data = r.Bytes32()
}

// IOReply answers an IORequest.
type IOReply struct {
	OK     bool
	Errmsg string
	Handle types.GlobalAddr // for IOOpOpen
	Data   []byte           // for IOOpRead
	N      int32            // bytes read/written
}

func (*IOReply) Kind() Kind { return KindIOReply }

func (p *IOReply) MarshalWire(w *Writer) {
	w.Bool(p.OK)
	w.String(p.Errmsg)
	w.Addr(p.Handle)
	w.Bytes32(p.Data)
	w.Int32(p.N)
}

func (p *IOReply) UnmarshalWire(r *Reader) {
	p.OK = r.Bool()
	p.Errmsg = r.String()
	p.Handle = r.Addr()
	p.Data = r.Bytes32()
	p.N = r.Int32()
}

// FrontendOutput routes program output to the user's frontend site
// (paper §4: "the I/O manager sends all output and input requests to the
// front end").
type FrontendOutput struct {
	Program types.ProgramID
	Text    string
}

func (*FrontendOutput) Kind() Kind { return KindFrontendOutput }

func (p *FrontendOutput) MarshalWire(w *Writer) {
	w.ProgramID(p.Program)
	w.String(p.Text)
}

func (p *FrontendOutput) UnmarshalWire(r *Reader) {
	p.Program = r.ProgramID()
	p.Text = r.String()
}

// ---------------------------------------------------------------------------
// Program manager payloads (paper §4).

// ProgramRegister introduces a program to a site (piggybacked on the first
// frame of an unknown program, or sent at submission).
type ProgramRegister struct {
	Program  types.ProgramID
	CodeHome types.SiteID // site to request microthread code from
	Frontend types.SiteID // site whose frontend receives output
	Name     string
}

func (*ProgramRegister) Kind() Kind { return KindProgramRegister }

func (p *ProgramRegister) MarshalWire(w *Writer) {
	w.ProgramID(p.Program)
	w.SiteID(p.CodeHome)
	w.SiteID(p.Frontend)
	w.String(p.Name)
}

func (p *ProgramRegister) UnmarshalWire(r *Reader) {
	p.Program = r.ProgramID()
	p.CodeHome = r.SiteID()
	p.Frontend = r.SiteID()
	p.Name = r.String()
}

// ProgramTerminated flags a program as finished so "its microthreads can
// safely be deleted from memory".
type ProgramTerminated struct {
	Program types.ProgramID
	Result  []byte
}

func (*ProgramTerminated) Kind() Kind { return KindProgramTerminated }

func (p *ProgramTerminated) MarshalWire(w *Writer) {
	w.ProgramID(p.Program)
	w.Bytes32(p.Result)
}

func (p *ProgramTerminated) UnmarshalWire(r *Reader) {
	p.Program = r.ProgramID()
	p.Result = r.Bytes32()
}

// ProgramQuery asks a peer for its program-table entry.
type ProgramQuery struct {
	Program types.ProgramID
}

func (*ProgramQuery) Kind() Kind { return KindProgramQuery }

func (p *ProgramQuery) MarshalWire(w *Writer) { w.ProgramID(p.Program) }

func (p *ProgramQuery) UnmarshalWire(r *Reader) { p.Program = r.ProgramID() }

// ProgramInfo answers a ProgramQuery.
type ProgramInfo struct {
	Known      bool
	Terminated bool
	Register   ProgramRegister
}

func (*ProgramInfo) Kind() Kind { return KindProgramInfo }

func (p *ProgramInfo) MarshalWire(w *Writer) {
	w.Bool(p.Known)
	w.Bool(p.Terminated)
	p.Register.MarshalWire(w)
}

func (p *ProgramInfo) UnmarshalWire(r *Reader) {
	p.Known = r.Bool()
	p.Terminated = r.Bool()
	p.Register.UnmarshalWire(r)
}

// ---------------------------------------------------------------------------
// Checkpoint / crash management payloads ([4], paper §2.2/§6).

// CheckpointStore replicates a checkpoint of program state to a
// checkpoint site.
type CheckpointStore struct {
	Program types.ProgramID
	Epoch   uint64
	Origin  types.SiteID
	Frames  []*Microframe
	Objects []MemObject
}

func (*CheckpointStore) Kind() Kind { return KindCheckpointStore }

func (p *CheckpointStore) MarshalWire(w *Writer) {
	w.ProgramID(p.Program)
	w.Uint64(p.Epoch)
	w.SiteID(p.Origin)
	w.Uint32(uint32(len(p.Frames)))
	for _, f := range p.Frames {
		f.MarshalWire(w)
	}
	w.Uint32(uint32(len(p.Objects)))
	for i := range p.Objects {
		p.Objects[i].marshal(w)
	}
}

func (p *CheckpointStore) UnmarshalWire(r *Reader) {
	p.Program = r.ProgramID()
	p.Epoch = r.Uint64()
	p.Origin = r.SiteID()
	nf := r.SliceLen(microframeWireSize, "checkpoint frames")
	p.Frames = growFrames(p.Frames, nf)
	for i := 0; i < nf && r.Err() == nil; i++ {
		p.Frames[i].UnmarshalWire(r)
	}
	no := r.SliceLen(memObjectWireSize, "checkpoint objects")
	p.Objects = grow(p.Objects, no)
	for i := 0; i < no && r.Err() == nil; i++ {
		p.Objects[i].unmarshal(r)
	}
}

// CheckpointAck confirms storage of a checkpoint epoch.
type CheckpointAck struct {
	Program types.ProgramID
	Epoch   uint64
}

func (*CheckpointAck) Kind() Kind { return KindCheckpointAck }

func (p *CheckpointAck) MarshalWire(w *Writer) {
	w.ProgramID(p.Program)
	w.Uint64(p.Epoch)
}

func (p *CheckpointAck) UnmarshalWire(r *Reader) {
	p.Program = r.ProgramID()
	p.Epoch = r.Uint64()
}

// ---------------------------------------------------------------------------
// Generic payloads.

// ErrorReply reports a failed request back to its sender.
type ErrorReply struct {
	Code    uint16
	Message string
}

// Error codes carried in ErrorReply.
const (
	ErrCodeGeneric uint16 = iota
	ErrCodeNoSuchObject
	ErrCodeNoSuchFrame
	ErrCodeNoSuchThread
	ErrCodeNoBinary
	ErrCodeNoProgram
	ErrCodeShutdown
)

func (*ErrorReply) Kind() Kind { return KindError }

func (p *ErrorReply) MarshalWire(w *Writer) {
	w.Uint16(p.Code)
	w.String(p.Message)
}

func (p *ErrorReply) UnmarshalWire(r *Reader) {
	p.Code = r.Uint16()
	p.Message = r.String()
}

// Err converts the reply into a Go error rooted at the matching sentinel.
func (p *ErrorReply) Err() error {
	var base error
	switch p.Code {
	case ErrCodeNoSuchObject:
		base = types.ErrNoSuchObject
	case ErrCodeNoSuchFrame:
		base = types.ErrNoSuchFrame
	case ErrCodeNoSuchThread:
		base = types.ErrNoSuchThread
	case ErrCodeNoBinary:
		base = types.ErrNoBinary
	case ErrCodeNoProgram:
		base = types.ErrNoProgram
	case ErrCodeShutdown:
		base = types.ErrShutdown
	default:
		base = types.ErrBadMessage
	}
	if p.Message == "" {
		return base
	}
	return &remoteError{base: base, msg: p.Message}
}

type remoteError struct {
	base error
	msg  string
}

func (e *remoteError) Error() string { return e.msg }

func (e *remoteError) Unwrap() error { return e.base }

// Barrier is a test/maintenance payload used to flush in-flight traffic:
// the receiver replies with an identical Barrier.
type Barrier struct {
	Token uint64
}

func (*Barrier) Kind() Kind { return KindBarrier }

func (p *Barrier) MarshalWire(w *Writer) { w.Uint64(p.Token) }

func (p *Barrier) UnmarshalWire(r *Reader) { p.Token = r.Uint64() }

// ---------------------------------------------------------------------------
// Accounting payloads (paper §2.2/§6: "the SDVM could act as a service
// provider ... the accounting functionality needed for this can be
// integrated into the SDVM").

func init() {
	register(KindUsageQuery, func() Payload { return &UsageQuery{} })
	register(KindUsageReply, func() Payload { return &UsageReply{} })
	register(KindStatusQuery, func() Payload { return &StatusQuery{} })
	register(KindStatusReply, func() Payload { return &StatusReply{} })
	register(KindInputRequest, func() Payload { return &InputRequest{} })
	register(KindInputReply, func() Payload { return &InputReply{} })
	register(KindMemInvalidateBatch, func() Payload { return &MemInvalidateBatch{} })
	register(KindGossipDigest, func() Payload { return &GossipDigest{} })
	register(KindGossipDelta, func() Payload { return &GossipDelta{} })
}

// ---------------------------------------------------------------------------
// Gossip payloads (internal/gossip): epidemic membership & load
// dissemination, the only path by which joins, sign-offs, crashes and
// load statistics spread — every send is O(fanout), never O(cluster).

// GossipEntry is one row of a site's membership view: who the row is
// about, how alive the sender believes it is, and the load vector the
// cluster list's help-target scan reads. Incarnation
// numbers implement SWIM-style refutation: only the subject site may
// bump its own incarnation, so a higher incarnation always wins a merge
// and a falsely suspected site can overrule its accusers.
type GossipEntry struct {
	Site        types.SiteID
	Incarnation uint32
	Status      uint8   // gossip.Status: alive / suspect / dead / left
	OriginRound uint32  // subject's own round counter when it refreshed the row
	Load        float64 // load vector: cpu load ...
	QueueLen    int32   // ... executable queue depth ...
	Programs    int32   // ... and resident program count
}

// gossipEntryWireSize is the encoded size of one GossipEntry:
// Site (4) + Incarnation (4) + Status (1) + OriginRound (4) +
// Load (8) + QueueLen (4) + Programs (4).
const gossipEntryWireSize = 4 + 4 + 1 + 4 + 8 + 4 + 4

func marshalGossipEntry(w *Writer, e *GossipEntry) {
	w.SiteID(e.Site)
	w.Uint32(e.Incarnation)
	w.Uint8(e.Status)
	w.Uint32(e.OriginRound)
	w.Float64(e.Load)
	w.Int32(e.QueueLen)
	w.Int32(e.Programs)
}

func unmarshalGossipEntry(r *Reader) GossipEntry {
	return GossipEntry{
		Site:        r.SiteID(),
		Incarnation: r.Uint32(),
		Status:      r.Uint8(),
		OriginRound: r.Uint32(),
		Load:        r.Float64(),
		QueueLen:    r.Int32(),
		Programs:    r.Int32(),
	}
}

// GossipDigest is one anti-entropy push: a bounded window of the
// sender's membership view (its own row, recently changed rows, and a
// rotating slice of the rest). Sites carries full cluster-list entries
// for the non-tombstone rows, so a receiver that learns a site from a
// digest can immediately route to it — no separate introduction round.
type GossipDigest struct {
	From    types.SiteID
	Round   uint32 // sender's local round counter (diagnostic)
	Entries []GossipEntry
	Sites   []types.SiteInfo
}

func (*GossipDigest) Kind() Kind { return KindGossipDigest }

func (p *GossipDigest) MarshalWire(w *Writer) {
	w.SiteID(p.From)
	w.Uint32(p.Round)
	w.Uint32(uint32(len(p.Entries)))
	for i := range p.Entries {
		marshalGossipEntry(w, &p.Entries[i])
	}
	w.Uint32(uint32(len(p.Sites)))
	for i := range p.Sites {
		marshalSiteInfo(w, &p.Sites[i])
	}
}

func (p *GossipDigest) UnmarshalWire(r *Reader) {
	p.From = r.SiteID()
	p.Round = r.Uint32()
	n := r.SliceLen(gossipEntryWireSize, "gossip entries")
	p.Entries = grow(p.Entries, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Entries[i] = unmarshalGossipEntry(r)
	}
	n = r.SliceLen(siteInfoWireSize, "gossip sites")
	p.Sites = grow(p.Sites, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Sites[i] = unmarshalSiteInfo(r)
	}
}

// GossipDelta is the anti-entropy reply: the rows of an incoming digest
// the receiver knows strictly fresher state for, sent back so the
// staler side converges in one exchange instead of waiting for the
// epidemic to wash back. Deltas are never answered (no ping-pong).
type GossipDelta struct {
	From    types.SiteID
	Entries []GossipEntry
	Sites   []types.SiteInfo
}

func (*GossipDelta) Kind() Kind { return KindGossipDelta }

func (p *GossipDelta) MarshalWire(w *Writer) {
	w.SiteID(p.From)
	w.Uint32(uint32(len(p.Entries)))
	for i := range p.Entries {
		marshalGossipEntry(w, &p.Entries[i])
	}
	w.Uint32(uint32(len(p.Sites)))
	for i := range p.Sites {
		marshalSiteInfo(w, &p.Sites[i])
	}
}

func (p *GossipDelta) UnmarshalWire(r *Reader) {
	p.From = r.SiteID()
	n := r.SliceLen(gossipEntryWireSize, "gossip entries")
	p.Entries = grow(p.Entries, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Entries[i] = unmarshalGossipEntry(r)
	}
	n = r.SliceLen(siteInfoWireSize, "gossip sites")
	p.Sites = grow(p.Sites, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Sites[i] = unmarshalSiteInfo(r)
	}
}

// Usage is one site's resource account for one program.
type Usage struct {
	Program    types.ProgramID
	Site       types.SiteID
	Executed   uint64  // microthreads run
	WorkUnits  float64 // Context.Work cost spent
	BusyNanos  int64   // wall-clock execution time
	MsgsSent   uint64  // messages this program caused
	BytesMoved uint64  // parameter/memory bytes shipped
	Outputs    uint64  // frontend lines produced
}

// Add accumulates o into u (ids are kept from u).
func (u *Usage) Add(o Usage) {
	u.Executed += o.Executed
	u.WorkUnits += o.WorkUnits
	u.BusyNanos += o.BusyNanos
	u.MsgsSent += o.MsgsSent
	u.BytesMoved += o.BytesMoved
	u.Outputs += o.Outputs
}

func (u *Usage) marshal(w *Writer) {
	w.ProgramID(u.Program)
	w.SiteID(u.Site)
	w.Uint64(u.Executed)
	w.Float64(u.WorkUnits)
	w.Int64(u.BusyNanos)
	w.Uint64(u.MsgsSent)
	w.Uint64(u.BytesMoved)
	w.Uint64(u.Outputs)
}

func (u *Usage) unmarshal(r *Reader) {
	u.Program = r.ProgramID()
	u.Site = r.SiteID()
	u.Executed = r.Uint64()
	u.WorkUnits = r.Float64()
	u.BusyNanos = r.Int64()
	u.MsgsSent = r.Uint64()
	u.BytesMoved = r.Uint64()
	u.Outputs = r.Uint64()
}

// UsageQuery asks a site for its local account of one program (or all
// programs, when Program is zero).
type UsageQuery struct {
	Program types.ProgramID
}

func (*UsageQuery) Kind() Kind { return KindUsageQuery }

func (p *UsageQuery) MarshalWire(w *Writer) { w.ProgramID(p.Program) }

func (p *UsageQuery) UnmarshalWire(r *Reader) { p.Program = r.ProgramID() }

// UsageReply returns the requested accounts.
type UsageReply struct {
	Accounts []Usage
}

func (*UsageReply) Kind() Kind { return KindUsageReply }

func (p *UsageReply) MarshalWire(w *Writer) {
	w.Uint32(uint32(len(p.Accounts)))
	for i := range p.Accounts {
		p.Accounts[i].marshal(w)
	}
}

func (p *UsageReply) UnmarshalWire(r *Reader) {
	n := r.SliceLen(usageWireSize, "usage list")
	p.Accounts = grow(p.Accounts, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Accounts[i].unmarshal(r)
	}
}

// MemInvalidateBatch carries every address one replica holder must drop
// in a single round-trip. The owner groups invalidations per holder site
// and the holder acknowledges the whole batch with one Barrier, so a
// write (or migration) pays at most one round-trip per holder site
// instead of one per (address, holder) pair.
type MemInvalidateBatch struct {
	Addrs []types.GlobalAddr
}

func (*MemInvalidateBatch) Kind() Kind { return KindMemInvalidateBatch }

func (p *MemInvalidateBatch) MarshalWire(w *Writer) {
	w.Uint32(uint32(len(p.Addrs)))
	for _, a := range p.Addrs {
		w.Addr(a)
	}
}

func (p *MemInvalidateBatch) UnmarshalWire(r *Reader) {
	n := r.SliceLen(addrWireSize, "invalidate batch")
	p.Addrs = grow(p.Addrs, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Addrs[i] = r.Addr()
	}
}

// ---------------------------------------------------------------------------
// Site status payloads (paper §4, site manager).

// StatusQuery asks the site manager for a snapshot of the local site.
type StatusQuery struct{}

func (*StatusQuery) Kind() Kind { return KindStatusQuery }

func (p *StatusQuery) MarshalWire(w *Writer) {}

func (p *StatusQuery) UnmarshalWire(r *Reader) {}

// StatusReply is a compact remote view of one site's managers.
type StatusReply struct {
	Site     types.SiteID
	Load     float64
	QueueLen int32
	Programs int32
	Executed uint64
	Running  int32
	Frames   int32
	Objects  int32
	BusSent  uint64
	BusRecv  uint64
	UptimeNs int64
}

func (*StatusReply) Kind() Kind { return KindStatusReply }

func (p *StatusReply) MarshalWire(w *Writer) {
	w.SiteID(p.Site)
	w.Float64(p.Load)
	w.Int32(p.QueueLen)
	w.Int32(p.Programs)
	w.Uint64(p.Executed)
	w.Int32(p.Running)
	w.Int32(p.Frames)
	w.Int32(p.Objects)
	w.Uint64(p.BusSent)
	w.Uint64(p.BusRecv)
	w.Int64(p.UptimeNs)
}

func (p *StatusReply) UnmarshalWire(r *Reader) {
	p.Site = r.SiteID()
	p.Load = r.Float64()
	p.QueueLen = r.Int32()
	p.Programs = r.Int32()
	p.Executed = r.Uint64()
	p.Running = r.Int32()
	p.Frames = r.Int32()
	p.Objects = r.Int32()
	p.BusSent = r.Uint64()
	p.BusRecv = r.Uint64()
	p.UptimeNs = r.Int64()
}

// ---------------------------------------------------------------------------
// Frontend input payloads (paper §4, I/O manager).

// InputRequest asks the program's frontend site for one line of user
// input; Prompt is shown to the user.
type InputRequest struct {
	Program types.ProgramID
	Prompt  string
}

func (*InputRequest) Kind() Kind { return KindInputRequest }

func (p *InputRequest) MarshalWire(w *Writer) {
	w.ProgramID(p.Program)
	w.String(p.Prompt)
}

func (p *InputRequest) UnmarshalWire(r *Reader) {
	p.Program = r.ProgramID()
	p.Prompt = r.String()
}

// InputReply returns the user's input line (OK=false: no input source).
type InputReply struct {
	OK   bool
	Line string
}

func (*InputReply) Kind() Kind { return KindInputReply }

func (p *InputReply) MarshalWire(w *Writer) {
	w.Bool(p.OK)
	w.String(p.Line)
}

func (p *InputReply) UnmarshalWire(r *Reader) {
	p.OK = r.Bool()
	p.Line = r.String()
}

// ---------------------------------------------------------------------------
// Home-based coherence payloads (attraction memory v2): read replicas
// fault in via MemReadReplica/MemReplicaData instead of migrating the
// object, and MemHeatTransfer ships the owner's decayed access-heat
// table alongside a heat-triggered ownership push so the new owner does
// not restart its migration decision from a cold counter.

func init() {
	register(KindMemReadReplica, func() Payload { return &MemReadReplica{} })
	register(KindMemReplicaData, func() Payload { return &MemReplicaData{} })
	register(KindMemHeatTransfer, func() Payload { return &MemHeatTransfer{} })
}

// MemReadReplica asks the owning site for a cached read replica of one
// object. The owner registers the requester in the object's replica set
// under the same lock that serves the data, so a later write cannot
// commit without invalidating this copy first.
type MemReadReplica struct {
	Addr types.GlobalAddr
}

func (*MemReadReplica) Kind() Kind { return KindMemReadReplica }

func (p *MemReadReplica) MarshalWire(w *Writer) { w.Addr(p.Addr) }

func (p *MemReadReplica) UnmarshalWire(r *Reader) { p.Addr = r.Addr() }

// MemReplicaData answers MemReadReplica: the object bytes plus the
// version they correspond to and the program owning the object, a
// redirect to the current owner, or not-found. Version lets the
// requester tag its replica so stale installs racing an invalidation
// can be detected and discarded; Program lets it drop the replica when
// that program ends.
type MemReplicaData struct {
	Found    bool
	Redirect types.SiteID    // nonzero: ask this site instead
	Version  uint64          // valid when Found and Redirect==0
	Data     []byte          // valid when Found and Redirect==0
	Program  types.ProgramID // valid when Found and Redirect==0
}

func (*MemReplicaData) Kind() Kind { return KindMemReplicaData }

func (p *MemReplicaData) MarshalWire(w *Writer) {
	w.Bool(p.Found)
	w.SiteID(p.Redirect)
	if p.Found && p.Redirect == types.InvalidSite {
		w.Uint64(p.Version)
		w.Bytes32(p.Data)
		w.ProgramID(p.Program)
	}
}

func (p *MemReplicaData) UnmarshalWire(r *Reader) {
	p.Found = r.Bool()
	p.Redirect = r.SiteID()
	if p.Found && p.Redirect == types.InvalidSite {
		p.Version = r.Uint64()
		p.Data = r.Bytes32()
		p.Program = r.ProgramID()
	}
}

// heatEntryWireSize is the encoded size of one (site, heat) pair.
const heatEntryWireSize = 4 + 4

// MemHeatTransfer accompanies a heat-triggered MemMigrate: the decayed
// per-writer access counters the old owner accumulated for the object,
// so the new owner seeds its own heat table instead of needing a full
// window of writes before it can judge the next migration.
type MemHeatTransfer struct {
	Addr  types.GlobalAddr
	Sites []types.SiteID
	Heats []uint32 // parallel to Sites
}

func (*MemHeatTransfer) Kind() Kind { return KindMemHeatTransfer }

func (p *MemHeatTransfer) MarshalWire(w *Writer) {
	w.Addr(p.Addr)
	n := len(p.Sites)
	if len(p.Heats) < n {
		n = len(p.Heats)
	}
	w.Uint32(uint32(n))
	for i := 0; i < n; i++ {
		w.SiteID(p.Sites[i])
		w.Uint32(p.Heats[i])
	}
}

func (p *MemHeatTransfer) UnmarshalWire(r *Reader) {
	p.Addr = r.Addr()
	n := r.SliceLen(heatEntryWireSize, "heat table")
	p.Sites = grow(p.Sites, n)
	p.Heats = grow(p.Heats, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Sites[i] = r.SiteID()
		p.Heats[i] = r.Uint32()
	}
}
