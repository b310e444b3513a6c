package wire

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

// samplePayloads returns one populated instance of every payload kind, so
// round-trip tests cover the entire protocol.
func samplePayloads() []Payload {
	prog := types.MakeProgramID(3, 7)
	tid := types.ThreadID{Program: prog, Index: 4}
	addr := types.GlobalAddr{Home: 2, Local: 99}
	frame := NewMicroframe(addr, tid, 3, Target{Addr: types.GlobalAddr{Home: 5, Local: 1}, Slot: 0})
	frame.Filled[1] = true
	frame.Params[1] = []byte{0xCA, 0xFE}
	frame.Prio = types.PriorityHigh
	frame.Hint = 77

	sites := []types.SiteInfo{
		{ID: 1, PhysAddr: "10.0.0.1:7000", Platform: 1, Speed: 1.0, Load: 0.5, QueueLen: 3, Programs: 1, IsCodeDist: true},
		{ID: 2, PhysAddr: "inproc-2", Platform: 2, Speed: 1.7},
	}

	return []Payload{
		&SignOnRequest{PhysAddr: "10.1.2.3:9999", Platform: 5, Speed: 2.5},
		&SignOnReply{Assigned: 9, Cluster: sites},
		&IDBlockRequest{Want: 16},
		&IDBlockReply{First: 100, Count: 16},
		&Ping{Nonce: 1234567},
		&Pong{Nonce: 1234567},
		&HelpRequest{Requester: 6, Load: 0.0, Speed: 1.2},
		&HelpReply{CantHelp: false, Frames: []*Microframe{frame}},
		&HelpReply{CantHelp: false, Frames: []*Microframe{frame, NewMicroframe(addr, tid, 1)}},
		&HelpReply{CantHelp: true},
		&FramePush{Frame: frame},
		&ApplyParam{Dst: Target{Addr: addr, Slot: 2}, Data: []byte("result")},
		&MemRead{Addr: addr},
		&MemReadReply{Found: true, Object: MemObject{Addr: addr, Data: []byte{1, 2}, Version: 3}},
		&MemReadReply{Found: true, Redirect: 7},
		&MemReadReply{Found: false},
		&MemWrite{Addr: addr, Offset: 8, Data: []byte{9}},
		&MemWriteAck{OK: true},
		&MemWriteAck{OK: false, Redirect: 3},
		&MemMigrate{Objects: []MemObject{{Addr: addr, Data: []byte{5}, Version: 1}}},
		&MemInvalidateBatch{Addrs: []types.GlobalAddr{addr, {Home: 4, Local: 12}}},
		&HomeUpdate{Addr: addr, Owner: 8},
		&FrameRelocate{Frames: []*Microframe{frame, NewMicroframe(addr, tid, 0)}},
		&CodeRequest{Thread: tid, Platform: 3},
		&CodeReply{Found: true, IsSource: false, Platform: 3, Artifact: []byte("bin"), FuncName: "primes.test"},
		&CodeReply{Found: true, IsSource: true, Platform: types.PlatformAny, Artifact: []byte("src"), FuncName: "primes.test"},
		&CodeReply{Found: false},
		&CodePublish{Thread: tid, Platform: 3, Artifact: []byte("bin"), FuncName: "f"},
		&IORequest{Op: IOOpOpen, Name: "/tmp/x", Handle: addr, Offset: 5, Length: 10, Data: []byte("d")},
		&IOReply{OK: true, Handle: addr, Data: []byte("read"), N: 4},
		&IOReply{OK: false, Errmsg: "no such file"},
		&FrontendOutput{Program: prog, Text: "hello"},
		&ProgramRegister{Program: prog, CodeHome: 1, Frontend: 2, Name: "primes"},
		&ProgramTerminated{Program: prog, Result: []byte("42")},
		&ProgramQuery{Program: prog},
		&ProgramInfo{Known: true, Terminated: false, Register: ProgramRegister{Program: prog, CodeHome: 1, Frontend: 1, Name: "p"}},
		&CheckpointStore{Program: prog, Epoch: 2, Origin: 3, Frames: []*Microframe{frame}, Objects: []MemObject{{Addr: addr, Data: []byte{1}}}},
		&CheckpointAck{Program: prog, Epoch: 2},
		&ErrorReply{Code: ErrCodeNoSuchFrame, Message: "gone"},
		&Barrier{Token: 55},
		&UsageQuery{Program: prog},
		&UsageReply{Accounts: []Usage{{
			Program: prog, Site: 2, Executed: 9, WorkUnits: 3.5,
			BusyNanos: 123456, MsgsSent: 7, BytesMoved: 4096, Outputs: 2,
		}}},
		&UsageReply{},
		&StatusQuery{},
		&StatusReply{Site: 3, Load: 0.5, QueueLen: 4, Programs: 1, Executed: 100,
			Running: 2, Frames: 5, Objects: 6, BusSent: 10, BusRecv: 11, UptimeNs: 999},
		&InputRequest{Program: prog, Prompt: "name?"},
		&InputReply{OK: true, Line: "alice"},
		&InputReply{},
		&MetricsQuery{},
		&MetricsReply{Site: 2, Samples: []MetricSample{
			{Name: "exec.executed", Value: 12},
			{Name: "sched.dispatch_latency.sum_ns", Value: 345678},
		}},
		&MetricsReply{},
		&GossipDigest{From: 3, Round: 17, Entries: []GossipEntry{
			{Site: 1, Incarnation: 2, Status: 0, OriginRound: 16, Load: 0.25, QueueLen: 4, Programs: 1},
			{Site: 4, Incarnation: 1, Status: 2, OriginRound: 9},
		}, Sites: sites},
		&GossipDigest{From: 5, Round: 1},
		&GossipDelta{From: 2, Entries: []GossipEntry{
			{Site: 6, Incarnation: 7, Status: 1, OriginRound: 30, Load: 0.9, QueueLen: 12, Programs: 2},
		}, Sites: sites[:1]},
		&GossipDelta{From: 9},
		&MemReadReplica{Addr: addr},
		&MemReplicaData{Found: true, Version: 5, Data: []byte{7, 8, 9}, Program: types.MakeProgramID(2, 7)},
		&MemReplicaData{Found: true, Redirect: 6},
		&MemReplicaData{Found: false},
		&MemHeatTransfer{Addr: addr, Sites: []types.SiteID{1, 4}, Heats: []uint32{12, 3}},
		&MemHeatTransfer{Addr: addr},
	}
}

// retiredPayload is a message body framed under a retired kind number.
type retiredPayload struct {
	kind Kind
	body []byte
}

// retiredPayloads returns, for every retired kind, the bodies an older
// peer framed under it — the encodings the deleted payload types wrote,
// one per sample those types had. The kind numbers stay reserved so
// every live kind keeps its value; decoding any of them must fail as an
// unknown kind. The fuzz targets seed from these too.
func retiredPayloads() []retiredPayload {
	enc := func(f func(w *Writer)) []byte {
		w := NewWriter(0)
		f(w)
		return append([]byte(nil), w.Bytes()...)
	}
	prog := types.MakeProgramID(3, 7)
	addr := types.GlobalAddr{Home: 2, Local: 99}
	site := types.SiteInfo{ID: 2, PhysAddr: "inproc-2", Platform: 2, Speed: 1.7}
	frame := NewMicroframe(addr, types.ThreadID{Program: prog, Index: 4}, 1)
	return []retiredPayload{
		{3, enc(func(w *Writer) { w.Uint32(1); marshalSiteInfo(w, &site) })}, // site announcement
		{4, enc(func(w *Writer) { w.SiteID(4) })},                            // sign-off notice
		{5, enc(func(w *Writer) { // load report
			w.SiteID(2)
			w.Float64(0.75)
			w.Int32(10)
			w.Int32(2)
		})},
		{33, enc(func(w *Writer) { w.SiteID(5) })},                    // crash notice
		{34, enc(func(w *Writer) { w.ProgramID(prog); w.SiteID(5) })}, // recovery request
		{35, enc(func(w *Writer) { // recovery reply, found
			w.Bool(true)
			w.Uint64(2)
			w.Uint32(1)
			frame.MarshalWire(w)
			w.Uint32(0)
		})},
		{35, enc(func(w *Writer) { w.Bool(false); w.Uint64(0); w.Uint32(0); w.Uint32(0) })}, // recovery reply, not found
		{44, enc(func(w *Writer) { w.Addr(addr) })},                                         // un-batched invalidation
	}
}

// retired reports whether k is a retired kind number.
func retired(k Kind) bool {
	for _, r := range retiredPayloads() {
		if r.kind == k {
			return true
		}
	}
	return false
}

// TestSamplePayloadsCoverAllKinds pins the property the fuzz seeds rely
// on: samplePayloads produces at least one instance of every registered
// kind, so FuzzPayloadRoundTrip and the round-trip tests cover the
// entire protocol. Registering a new kind without extending
// samplePayloads fails here, not silently.
func TestSamplePayloadsCoverAllKinds(t *testing.T) {
	seen := map[Kind]bool{}
	for _, p := range samplePayloads() {
		seen[p.Kind()] = true
	}
	for k := KindInvalid + 1; k < kindCount; k++ {
		if !seen[k] && !retired(k) {
			t.Errorf("samplePayloads has no instance of kind %v", k)
		}
	}
}

// TestRetiredKindsRejected pins the reservation: a retired kind number
// has no payload, no name, and both decoders reject a message framed
// under it as an unknown kind — never as some live payload that took
// its number over.
func TestRetiredKindsRejected(t *testing.T) {
	dec := NewDecoder()
	for _, r := range retiredPayloads() {
		if p := NewPayload(r.kind); p != nil {
			t.Errorf("retired kind %d decodes as %T", r.kind, p)
		}
		if got, want := r.kind.String(), fmt.Sprintf("kind(%d)", r.kind); got != want {
			t.Errorf("retired kind %d is named %q", r.kind, got)
		}
		buf := rawMsg(uint16(r.kind), r.body)
		_, err := DecodeBytes(buf)
		if err == nil || !errors.Is(err, types.ErrBadMessage) || !strings.Contains(err.Error(), "unknown payload kind") {
			t.Errorf("retired kind %d: Decode error %v, want unknown payload kind", r.kind, err)
		}
		if _, err := dec.Decode(buf); err != errUnknownKind {
			t.Errorf("retired kind %d: Decoder error %v, want %v", r.kind, err, errUnknownKind)
		}
	}
}

func TestMessageRoundTripAllKinds(t *testing.T) {
	for _, p := range samplePayloads() {
		m := &Message{
			Src:     1,
			Dst:     2,
			SrcMgr:  types.MgrScheduling,
			DstMgr:  types.MgrMemory,
			Seq:     42,
			Reply:   7,
			Payload: p,
		}
		buf := m.EncodeBytes()
		got, err := DecodeBytes(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", p.Kind(), err)
		}
		if got.Src != m.Src || got.Dst != m.Dst || got.SrcMgr != m.SrcMgr ||
			got.DstMgr != m.DstMgr || got.Seq != m.Seq || got.Reply != m.Reply {
			t.Errorf("%v: header mismatch: %v vs %v", p.Kind(), got, m)
		}
		if !reflect.DeepEqual(got.Payload, p) {
			t.Errorf("%v: payload mismatch:\n got %#v\nwant %#v", p.Kind(), got.Payload, p)
		}
	}
}

func TestMessageRoundTripNilPayload(t *testing.T) {
	m := &Message{Src: 1, Dst: 2, SrcMgr: types.MgrSite, DstMgr: types.MgrSite, Seq: 1}
	got, err := DecodeBytes(m.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil {
		t.Errorf("payload = %v, want nil", got.Payload)
	}
}

func TestDecodeTruncatedAllKinds(t *testing.T) {
	// Every proper prefix of every encoded message must fail to decode
	// cleanly (never panic, never succeed with garbage) — except prefixes
	// that happen to end exactly at a payload boundary, which cannot
	// exist because the kind tag precedes the payload.
	for _, p := range samplePayloads() {
		m := &Message{Src: 1, Dst: 2, SrcMgr: 1, DstMgr: 2, Seq: 1, Payload: p}
		buf := m.EncodeBytes()
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeBytes(buf[:cut]); err == nil {
				// A cut inside trailing optional data may decode if the
				// payload is self-delimiting; verify it at least returned
				// a message of the right kind rather than garbage.
				got, _ := DecodeBytes(buf[:cut])
				if got == nil || got.Payload == nil || got.Payload.Kind() != p.Kind() {
					t.Errorf("%v cut=%d: silent bad decode", p.Kind(), cut)
				}
			}
		}
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	w := NewWriter(0)
	m := &Message{Src: 1, Dst: 2, Payload: &Ping{}}
	m.Encode(w)
	buf := w.Bytes()
	// Corrupt the kind tag (last 2 header bytes before payload).
	buf[headerSize-2] = 0xFF
	buf[headerSize-1] = 0xFF
	if _, err := DecodeBytes(buf); err == nil {
		t.Fatal("expected error for unknown kind")
	} else if !errors.Is(err, types.ErrBadMessage) {
		t.Fatalf("error %v does not wrap ErrBadMessage", err)
	}
}

func TestKindStringsUnique(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindInvalid; k < kindCount; k++ {
		name := k.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, name)
		}
		seen[name] = k
	}
}

func TestAllKindsRegistered(t *testing.T) {
	for k := KindInvalid + 1; k < kindCount; k++ {
		if retired(k) {
			continue
		}
		if NewPayload(k) == nil {
			t.Errorf("kind %v has no registered factory", k)
		}
		if _, named := kindNames[k]; !named {
			t.Errorf("kind %v has no kindNames entry", k)
		}
	}
	if NewPayload(KindInvalid) != nil {
		t.Error("KindInvalid should have no factory")
	}
	if NewPayload(Kind(9999)) != nil {
		t.Error("out-of-range kind should have no factory")
	}
}

func TestErrorReplyErrMapping(t *testing.T) {
	cases := []struct {
		code uint16
		want error
	}{
		{ErrCodeNoSuchObject, types.ErrNoSuchObject},
		{ErrCodeNoSuchFrame, types.ErrNoSuchFrame},
		{ErrCodeNoSuchThread, types.ErrNoSuchThread},
		{ErrCodeNoBinary, types.ErrNoBinary},
		{ErrCodeNoProgram, types.ErrNoProgram},
		{ErrCodeShutdown, types.ErrShutdown},
		{ErrCodeGeneric, types.ErrBadMessage},
	}
	for _, c := range cases {
		e := &ErrorReply{Code: c.code, Message: "ctx"}
		if !errors.Is(e.Err(), c.want) {
			t.Errorf("code %d: %v does not wrap %v", c.code, e.Err(), c.want)
		}
		if e.Err().Error() != "ctx" {
			t.Errorf("code %d: message lost", c.code)
		}
		bare := &ErrorReply{Code: c.code}
		if !errors.Is(bare.Err(), c.want) {
			t.Errorf("code %d bare: wrong sentinel", c.code)
		}
	}
}
