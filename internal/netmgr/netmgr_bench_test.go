package netmgr

import (
	"runtime"
	"testing"

	"repro/internal/security"
	"repro/internal/wire"
)

// BenchmarkEnvelopeAppend measures the per-message batching work in
// isolation: one length-prefixed record copied into a pooled envelope.
// Steady state must be 0 allocs/op (the CI alloc gate tracks it).
func BenchmarkEnvelopeAppend(b *testing.B) {
	datagram := make([]byte, 128)
	env := wire.GetWriter(64 << 10)
	defer env.Release()
	// Warm the writer up to its working size so growth happens before
	// the measurement.
	for env.Len() < 60<<10 {
		appendRecord(env, datagram)
	}
	env.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if env.Len() > 60<<10 {
			env.Reset()
		}
		appendRecord(env, datagram)
	}
}

// benchSend measures the full uncontended send path: envelope layout,
// in-place seal, transport hand-off, envelope release.
func benchSend(b *testing.B, sec security.Layer) {
	m := New(hookNet{}, sec, func([]byte) {})
	defer m.Close()
	datagram := make([]byte, 128)
	// Warm: dial the cached connection and cycle the pools.
	for i := 0; i < 64; i++ {
		if err := m.Send("peer", datagram); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Send("peer", datagram); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSend(b *testing.B) { benchSend(b, security.Plaintext{}) }

// BenchmarkSendAESGCM is BenchmarkSend with the real cipher, so the
// in-place seal's allocation behavior is tracked too.
func BenchmarkSendAESGCM(b *testing.B) {
	sec, err := security.NewAESGCM("bench-pw")
	if err != nil {
		b.Fatal(err)
	}
	benchSend(b, sec)
}

// BenchmarkSendBatched measures the contended path: many goroutines
// send to one peer over a link that yields the processor mid-send, so
// most datagrams find a send in flight and ride a shared envelope.
func BenchmarkSendBatched(b *testing.B) {
	m := New(hookNet{send: func([]byte) error {
		runtime.Gosched()
		return nil
	}}, security.Plaintext{}, func([]byte) {})
	defer m.Close()
	datagram := make([]byte, 128)
	b.SetParallelism(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := m.Send("peer", datagram); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
