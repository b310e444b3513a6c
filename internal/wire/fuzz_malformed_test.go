package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/types"
)

// This file fuzzes Decode with raw hostile bytes rather than round-trips:
// the property under test is not codec fidelity (FuzzDecode covers that)
// but resource safety — a peer-controlled length prefix must never make
// the decoder panic or allocate far beyond the datagram it was handed.
// The crafted seeds below are the exact shapes the wiretaint analyzer
// flagged before every decode loop was moved onto Reader.SliceLen.

// rawMsg frames payload bytes under numeric kind k behind a well-formed
// header, so the fuzzer's hostile bytes start at the payload parser
// instead of dying in the header read.
func rawMsg(k uint16, payload []byte) []byte {
	w := NewWriter(headerSize + len(payload))
	w.SiteID(1)
	w.SiteID(2)
	w.Uint8(uint8(types.MgrScheduling))
	w.Uint8(uint8(types.MgrMemory))
	w.Uint64(7)
	w.Uint64(0)
	w.Uint16(k)
	w.buf = append(w.buf, payload...)
	return w.Bytes()
}

func le32(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

// malformedSeeds returns the corpus: one valid encoding of every
// registered kind, one old body under every retired kind, plus
// hand-built messages whose length prefixes claim counts worth
// gigabytes while carrying almost no bytes.
func malformedSeeds() map[string][]byte {
	seeds := make(map[string][]byte)
	for _, p := range samplePayloads() {
		m := &Message{Src: 1, Dst: 2, SrcMgr: types.MgrScheduling,
			DstMgr: types.MgrMemory, Seq: 9, Payload: p}
		seeds[fmt.Sprintf("valid-kind-%d", p.Kind())] = m.EncodeBytes()
	}
	for _, r := range retiredPayloads() {
		name := fmt.Sprintf("retired-kind-%d", r.kind)
		if _, dup := seeds[name]; !dup {
			seeds[name] = rawMsg(uint16(r.kind), r.body)
		}
	}
	// MemMigrate: object count 0x0FFFFFFF × 32-byte records ≈ 8 GiB.
	seeds["memmigrate-huge-count"] = rawMsg(uint16(KindMemMigrate), le32(0x0FFFFFFF))
	// UsageReply: site count 0x0FFFFFFF × 60-byte records ≈ 15 GiB.
	seeds["usagereply-huge-count"] = rawMsg(uint16(KindUsageReply), le32(0x0FFFFFFF))
	// SignOnReply: assigned site, then a cluster list claiming 2^28 entries.
	seeds["signonreply-huge-cluster"] = rawMsg(uint16(KindSignOnReply),
		append(le32(5), le32(0x0FFFFFFF)...))
	// FramePush: 30 bytes of microframe prefix (ID 12 + Thread 12 +
	// prio 2 + hint 4), then an arity of 2^28 parameter slots.
	seeds["framepush-huge-arity"] = rawMsg(uint16(KindFramePush),
		append(make([]byte, 30), le32(0x0FFFFFFF)...))
	// MemWrite: Addr 12 + Offset 4, then a Bytes32 length of ~256 MiB
	// with no bytes behind it.
	seeds["memwrite-huge-data"] = rawMsg(uint16(KindMemWrite),
		append(make([]byte, 16), le32(0x0FFFFFF0)...))
	// MetricsReply: sample count 2^28 × 12-byte samples ≈ 3 GiB.
	seeds["metricsreply-huge-count"] = rawMsg(uint16(KindMetricsReply), le32(0x0FFFFFFF))
	// GossipDigest: From 4 + Round 4, then an entry count of 2^28
	// 29-byte rows ≈ 7.8 GiB with no bytes behind it.
	seeds["gossipdigest-huge-count"] = rawMsg(uint16(KindGossipDigest),
		append(make([]byte, 8), le32(0x0FFFFFFF)...))
	// MemReplicaData: Found=1, Redirect=0, Version 8, then a Bytes32
	// length of ~256 MiB with no bytes behind it.
	seeds["memreplicadata-huge-data"] = rawMsg(uint16(KindMemReplicaData),
		append(append([]byte{1}, make([]byte, 12)...), le32(0x0FFFFFF0)...))
	// MemHeatTransfer: Addr 12, then a heat-table count of 2^28
	// 8-byte (site, heat) pairs ≈ 2 GiB with no bytes behind it.
	seeds["memheattransfer-huge-count"] = rawMsg(uint16(KindMemHeatTransfer),
		append(make([]byte, 12), le32(0x0FFFFFFF)...))
	seeds["empty"] = []byte{}
	seeds["truncated-header"] = []byte{1, 2, 3, 4, 5}
	seeds["unknown-kind"] = rawMsg(0xFFFF, nil)
	seeds["kind-invalid-trailing"] = rawMsg(uint16(KindInvalid), []byte{0xAA, 0xBB})
	return seeds
}

// FuzzDecodeMalformed pins the decoder's resource discipline: on any
// input it must not panic, must not allocate slices wildly larger than
// the input (every count is validated against Reader.Remaining before
// it sizes a make), and anything it accepts must re-encode into no more
// bytes than it was decoded from.
func FuzzDecodeMalformed(f *testing.F) {
	for _, seed := range malformedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // transport clamps datagrams long before this
		}
		// A decode may allocate the message, its payload struct, and
		// copies of the payload's variable-length fields — all bounded
		// by a small multiple of the input. The generous factor plus
		// fixed slack keeps incidental runtime allocation out of the
		// verdict while still catching a length-prefix make by orders
		// of magnitude. Retries absorb concurrent-allocation flakes.
		allowed := 64*uint64(len(data)) + 1<<16
		var (
			m     *Message
			err   error
			spent uint64
		)
		ok := false
		for attempt := 0; attempt < 3 && !ok; attempt++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err = DecodeBytes(data)
			runtime.ReadMemStats(&after)
			spent = after.TotalAlloc - before.TotalAlloc
			ok = spent <= allowed
		}
		if !ok {
			t.Fatalf("decoding %d bytes allocated %d bytes (allowed %d): length prefix not validated against remaining input",
				len(data), spent, allowed)
		}
		if err != nil {
			return // rejected: fine
		}
		// Accepted: the canonical re-encoding covers exactly the bytes
		// the decoder consumed, so it can never exceed the input.
		if n := len(m.EncodeBytes()); n > len(data) {
			t.Fatalf("decoded %d-byte input re-encodes to %d bytes: decoder invented data", len(data), n)
		}
	})
}

// TestSignOnReplyHugeClusterSeed pins what the signonreply-huge-cluster
// seed exercises: the cluster list's length prefix claims 2^28 entries
// behind zero remaining bytes, so decoding must fail at the SliceLen
// guard on that count — not earlier, by running out of bytes while
// reading some other field, which would leave the guard untested.
func TestSignOnReplyHugeClusterSeed(t *testing.T) {
	_, err := DecodeBytes(malformedSeeds()["signonreply-huge-cluster"])
	var de *decodeError
	if !errors.As(err, &de) || de.what != "cluster list count" {
		t.Fatalf("decode error = %v, want the cluster list count check", err)
	}
}

// TestWriteMalformedCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzDecodeMalformed. Run with WRITE_FUZZ_CORPUS=1 after
// changing malformedSeeds or the wire format; otherwise it only checks
// the committed files are in sync with the generator.
func TestWriteMalformedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMalformed")
	write := os.Getenv("WRITE_FUZZ_CORPUS") != ""
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, seed := range malformedSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		path := filepath.Join(dir, name)
		if write {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("corpus seed %s missing (regenerate with WRITE_FUZZ_CORPUS=1): %v", name, err)
			continue
		}
		if string(got) != body {
			t.Errorf("corpus seed %s out of sync with malformedSeeds (regenerate with WRITE_FUZZ_CORPUS=1)", name)
		}
	}
}
