package wire

import (
	"fmt"
	"testing"

	"repro/internal/race"
	"repro/internal/types"
)

// benchMessages returns a representative hot-path message set: the
// payloads that dominate cluster traffic (parameters, help grants,
// invalidation batches) rather than one of everything.
func benchMessages() []*Message {
	prog := types.MakeProgramID(1, 1)
	tid := types.ThreadID{Program: prog, Index: 2}
	addr := types.GlobalAddr{Home: 3, Local: 41}
	frame := NewMicroframe(addr, tid, 3, Target{Addr: addr, Slot: 0})
	frame.Filled[0] = true
	frame.Params[0] = make([]byte, 64)

	addrs := make([]types.GlobalAddr, 16)
	for i := range addrs {
		addrs[i] = types.GlobalAddr{Home: 3, Local: uint64(i + 1)}
	}

	payloads := []Payload{
		&ApplyParam{Dst: Target{Addr: addr, Slot: 1}, Data: make([]byte, 128)},
		&HelpReply{Frames: []*Microframe{frame, frame.Clone(), frame.Clone(), frame.Clone()}},
		&MemInvalidateBatch{Addrs: addrs},
		&MemWrite{Addr: addr, Offset: 16, Data: make([]byte, 256)},
		&MemReadReplica{Addr: addr},
		&MemReplicaData{Found: true, Version: 9, Data: make([]byte, 256)},
	}
	out := make([]*Message, len(payloads))
	for i, p := range payloads {
		out[i] = &Message{Src: 1, Dst: 2, SrcMgr: types.MgrMemory,
			DstMgr: types.MgrMemory, Seq: uint64(i + 1), Payload: p}
	}
	return out
}

// encodeOp is one BenchmarkEncode iteration: the production encode
// path, a pooled Writer per message released after the bytes are
// consumed.
func encodeOp(m *Message) func() {
	return func() {
		w := GetWriter(0)
		m.Encode(w)
		w.Release()
	}
}

// decodeOp is one BenchmarkDecode iteration: the zero-allocation decode
// path, a Decoder with reused scratch and aliasing views.
func decodeOp(tb testing.TB, m *Message) func() {
	buf := m.EncodeBytes()
	d := NewDecoder()
	return func() {
		if _, err := d.Decode(buf); err != nil {
			tb.Fatal(err)
		}
	}
}

// materializeOp is one BenchmarkDecodeMaterialize iteration: the
// bus-facing decode, which allocates by design because the bus retains
// what it decodes.
func materializeOp(tb testing.TB, m *Message) func() {
	buf := m.EncodeBytes()
	return func() {
		if _, err := DecodeBytes(buf); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchOp runs op b.N times after one warm-up call, so the first
// iteration's pool misses don't smear into the per-op averages.
func benchOp(b *testing.B, op func()) {
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, m := range benchMessages() {
		b.Run(m.Payload.Kind().String(), func(b *testing.B) { benchOp(b, encodeOp(m)) })
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, m := range benchMessages() {
		b.Run(m.Payload.Kind().String(), func(b *testing.B) { benchOp(b, decodeOp(b, m)) })
	}
}

func BenchmarkDecodeMaterialize(b *testing.B) {
	for _, m := range benchMessages() {
		b.Run(m.Payload.Kind().String(), func(b *testing.B) { benchOp(b, materializeOp(b, m)) })
	}
}

// materializeCeiling is the allocs/op ceiling of each materializing
// decode. It carries a little headroom because map-internals allocation
// counts shift between Go releases.
var materializeCeiling = map[Kind]float64{
	KindApplyParam:         6,
	KindHelpReply:          26,
	KindMemInvalidateBatch: 6,
	KindMemWrite:           6,
	KindMemReadReplica:     5,
	KindMemReplicaData:     6,
}

// TestAllocs is the allocation gate: the encode and decode benchmarks'
// bodies must not allocate, and the materializing decode must stay
// within its ceiling.
func TestAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, m := range benchMessages() {
		k := m.Payload.Kind()
		assertAllocs(t, "Encode/"+k.String(), 0, encodeOp(m))
		assertAllocs(t, "Decode/"+k.String(), 0, decodeOp(t, m))
		assertAllocs(t, "DecodeMaterialize/"+k.String(), materializeCeiling[k], materializeOp(t, m))
	}
}

// assertAllocs fails the test if op averages more than max allocations
// per run.
func assertAllocs(t *testing.T, name string, max float64, op func()) {
	t.Helper()
	if got := testing.AllocsPerRun(1000, op); got > max {
		t.Errorf("%s: %v allocs/op, want <= %v", name, got, max)
	}
}

// TestHelpReplyBatchRoundTrip pins the batched help-reply codec beyond
// the generic sample sweep: empty, single and multi-frame batches must
// round-trip exactly, and CantHelp must carry no frame list.
func TestHelpReplyBatchRoundTrip(t *testing.T) {
	prog := types.MakeProgramID(2, 5)
	tid := types.ThreadID{Program: prog, Index: 0}
	mk := func(n int) []*Microframe {
		out := make([]*Microframe, n)
		for i := range out {
			out[i] = NewMicroframe(types.GlobalAddr{Home: 1, Local: uint64(i + 1)}, tid, 0)
		}
		return out
	}
	for n := 0; n <= 5; n++ {
		p := &HelpReply{Frames: mk(n)}
		if n == 0 {
			p.Frames = nil
		}
		w := NewWriter(0)
		p.MarshalWire(w)
		q := &HelpReply{}
		r := NewReader(w.Bytes())
		q.UnmarshalWire(r)
		if r.Err() != nil {
			t.Fatalf("n=%d: decode: %v", n, r.Err())
		}
		if len(q.Frames) != n {
			t.Fatalf("n=%d: got %d frames back", n, len(q.Frames))
		}
		for i, f := range q.Frames {
			if f.ID != p.Frames[i].ID {
				t.Fatalf("n=%d: frame %d id %v, want %v", n, i, f.ID, p.Frames[i].ID)
			}
		}
	}
	cant := &HelpReply{CantHelp: true}
	w := NewWriter(0)
	cant.MarshalWire(w)
	if len(w.Bytes()) != 1 {
		t.Fatalf("CantHelp encoding = %d bytes, want 1", len(w.Bytes()))
	}
}

// TestMemInvalidateBatchRoundTrip pins the batch-invalidation codec,
// including the empty batch and a large one.
func TestMemInvalidateBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			p := &MemInvalidateBatch{}
			for i := 0; i < n; i++ {
				p.Addrs = append(p.Addrs, types.GlobalAddr{Home: types.SiteID(i % 7), Local: uint64(i)})
			}
			w := NewWriter(0)
			p.MarshalWire(w)
			q := &MemInvalidateBatch{}
			r := NewReader(w.Bytes())
			q.UnmarshalWire(r)
			if r.Err() != nil {
				t.Fatalf("decode: %v", r.Err())
			}
			if len(q.Addrs) != len(p.Addrs) {
				t.Fatalf("got %d addrs, want %d", len(q.Addrs), len(p.Addrs))
			}
			for i := range p.Addrs {
				if q.Addrs[i] != p.Addrs[i] {
					t.Fatalf("addr %d: %v != %v", i, q.Addrs[i], p.Addrs[i])
				}
			}
		})
	}
}
