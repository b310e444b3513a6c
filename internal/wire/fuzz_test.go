package wire

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// FuzzDecode hardens the SDMessage parser against arbitrary bytes: it
// must never panic, and anything it accepts must re-encode and re-decode
// to an equivalent message (decode∘encode is a projection).
func FuzzDecode(f *testing.F) {
	for _, p := range samplePayloads() {
		m := &Message{Src: 1, Dst: 2, SrcMgr: types.MgrScheduling,
			DstMgr: types.MgrMemory, Seq: 9, Payload: p}
		f.Add(m.EncodeBytes())
	}
	for _, r := range retiredPayloads() {
		f.Add(rawMsg(uint16(r.kind), r.body))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBytes(data)
		if err != nil {
			return // rejected: fine
		}
		// Accepted: round-trip must be stable.
		re := m.EncodeBytes()
		m2, err := DecodeBytes(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2 := m2.EncodeBytes()
		if !bytes.Equal(re, re2) {
			t.Fatalf("encode not stable:\n first %x\nsecond %x", re, re2)
		}
	})
}

// FuzzPayloadRoundTrip fuzzes each payload codec directly, below the
// message framing: a (kind, bytes) pair is decoded through the kind's
// registered factory, and anything accepted must re-encode and
// re-decode to the same bytes. The corpus is seeded with the golden
// encoding of every registered kind (TestSamplePayloadsCoverAllKinds in
// message_test.go pins that completeness), so the fuzzer starts from a
// valid instance of each codec rather than having to discover the
// formats from zero, and with the old bodies of every retired kind,
// which no factory may accept.
func FuzzPayloadRoundTrip(f *testing.F) {
	for _, p := range samplePayloads() {
		w := NewWriter(0)
		p.MarshalWire(w)
		f.Add(uint16(p.Kind()), append([]byte(nil), w.Bytes()...))
	}
	for _, r := range retiredPayloads() {
		f.Add(uint16(r.kind), r.body)
	}
	f.Add(uint16(0), []byte{})
	f.Add(uint16(9999), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, k uint16, data []byte) {
		kind := Kind(k)
		if kind <= KindInvalid || kind >= kindCount {
			return
		}
		p := NewPayload(kind)
		if p == nil {
			return
		}
		r := NewReader(data)
		p.UnmarshalWire(r)
		if r.Err() != nil {
			return // rejected: fine
		}
		w1 := NewWriter(0)
		p.MarshalWire(w1)
		q := NewPayload(kind)
		r2 := NewReader(w1.Bytes())
		q.UnmarshalWire(r2)
		if r2.Err() != nil {
			t.Fatalf("%v: re-decode failed: %v", kind, r2.Err())
		}
		w2 := NewWriter(0)
		q.MarshalWire(w2)
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("%v: encode not stable:\n first %x\nsecond %x", kind, w1.Bytes(), w2.Bytes())
		}
	})
}

// FuzzMicroframe does the same for the standalone frame codec (frames
// travel inside several payloads and via checkpoints).
func FuzzMicroframe(f *testing.F) {
	fr := NewMicroframe(types.GlobalAddr{Home: 1, Local: 2},
		types.ThreadID{Program: types.MakeProgramID(1, 1), Index: 3}, 2,
		Target{Addr: types.GlobalAddr{Home: 4, Local: 5}, Slot: 1})
	if _, err := fr.Apply(0, []byte("x")); err != nil {
		f.Fatal(err)
	}
	w := NewWriter(0)
	fr.MarshalWire(w)
	f.Add(w.Bytes())
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		var g Microframe
		r := NewReader(data)
		g.UnmarshalWire(r)
		if r.Err() != nil {
			return
		}
		// Accepted frames must re-encode stably.
		w1 := NewWriter(0)
		g.MarshalWire(w1)
		var h Microframe
		r2 := NewReader(w1.Bytes())
		h.UnmarshalWire(r2)
		if r2.Err() != nil {
			t.Fatalf("re-decode failed: %v", r2.Err())
		}
		w2 := NewWriter(0)
		h.MarshalWire(w2)
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatal("frame encode not stable")
		}
	})
}
