package netmgr

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/race"
	"repro/internal/security"
	"repro/internal/wire"
)

// envelopeOp is one BenchmarkEnvelopeAppend iteration: one
// length-prefixed record copied into a pooled envelope, the per-message
// batching work in isolation. The envelope is warmed up to its working
// size first, so growth happens before the measurement; the returned
// release hands it back to the pool.
func envelopeOp() (op, release func()) {
	datagram := make([]byte, 128)
	env := wire.GetWriter(64 << 10)
	for env.Len() < 60<<10 {
		appendRecord(env, datagram)
	}
	env.Reset()
	return func() {
		if env.Len() > 60<<10 {
			env.Reset()
		}
		appendRecord(env, datagram)
	}, env.Release
}

// sendOp is one BenchmarkSend iteration: the full uncontended send
// path — envelope layout, in-place seal, transport hand-off, envelope
// release. The cached connection is dialled and the pools cycled first;
// the returned release closes the manager.
func sendOp(tb testing.TB, sec security.Layer) (op, release func()) {
	m := New(hookNet{}, sec, func([]byte) {})
	datagram := make([]byte, 128)
	op = func() {
		if err := m.Send("peer", datagram); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		op()
	}
	return op, m.Close
}

func aesgcm(tb testing.TB) security.Layer {
	sec, err := security.NewAESGCM("bench-pw")
	if err != nil {
		tb.Fatal(err)
	}
	return sec
}

// batchedManager is BenchmarkSendBatched's contended link: it yields
// the processor mid-send, so most datagrams find a send in flight and
// ride a shared envelope.
func batchedManager() *Manager {
	return New(hookNet{send: func([]byte) error {
		runtime.Gosched()
		return nil
	}}, security.Plaintext{}, func([]byte) {})
}

// benchOp runs op b.N times with allocations reported, then release.
func benchOp(b *testing.B, op, release func()) {
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkEnvelopeAppend(b *testing.B) {
	op, release := envelopeOp()
	benchOp(b, op, release)
}

func BenchmarkSend(b *testing.B) {
	op, release := sendOp(b, security.Plaintext{})
	benchOp(b, op, release)
}

// BenchmarkSendAESGCM is BenchmarkSend with the real cipher, so the
// in-place seal's allocation behavior is tracked too.
func BenchmarkSendAESGCM(b *testing.B) {
	op, release := sendOp(b, aesgcm(b))
	benchOp(b, op, release)
}

func BenchmarkSendBatched(b *testing.B) {
	m := batchedManager()
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

// TestAllocs is the allocation gate on the send path: envelope
// batching, the plaintext and sealed single sends, and the contended
// batched send must not allocate.
func TestAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	zero := func(name string, op, release func()) {
		defer release()
		if got := testing.AllocsPerRun(1000, op); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
	op, release := envelopeOp()
	zero("EnvelopeAppend", op, release)
	op, release = sendOp(t, security.Plaintext{})
	zero("Send", op, release)
	op, release = sendOp(t, aesgcm(t))
	zero("SendAESGCM", op, release)

	// SendBatched: 8 senders contend for one link, as under
	// RunParallel with SetParallelism(8). Like the benchmark's figure,
	// the per-send rate is an integer mean, so the goroutine launches
	// of each run are amortized over its sends.
	m := batchedManager()
	defer m.Close()
	datagram := make([]byte, 128)
	const senders, sends = 8, 128
	var wg sync.WaitGroup
	perRun := testing.AllocsPerRun(20, func() {
		wg.Add(senders)
		for g := 0; g < senders; g++ {
			go func() {
				defer wg.Done()
				for i := 0; i < sends; i++ {
					if err := m.Send("peer", datagram); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	if got := int(perRun) / (senders * sends); got != 0 {
		t.Errorf("SendBatched: %d allocs/op, want 0", got)
	}
}
