package netmgr

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/transport/inproc"
	"repro/internal/wire"
)

// TestPooledAliasReleaseDuringBatching drives the contended send path
// and is the pooled-buffer aliasing regression test. Eight senders push
// 1000 datagrams each at one peer over a link so slow that its pipe
// fills, so sends are in flight when others arrive and envelopes get
// shared. Every datagram must arrive exactly once and in its sender's
// order. The ownership contract says a record is copied into the batch
// envelope before Send returns, so a caller may Release its pooled
// encode buffer — and another goroutine may immediately reuse that
// storage — while the envelope is still waiting for the link. If the
// copy were ever skipped (queueing the caller's slice instead), this
// test corrupts pending envelopes deterministically: every sender
// scribbles over its released buffer's pool class right after Send, and
// the receiver checks each delivered datagram is still uniformly filled
// with its sender's tag. Run under -race in the CI stress job.
func TestPooledAliasReleaseDuringBatching(t *testing.T) {
	// The receiver sees nothing for the first 200 ms, by which time the
	// link's 4096-datagram pipe is full and senders block inside it.
	fab := inproc.New(inproc.LinkProfile{Latency: 200 * time.Millisecond})
	t.Cleanup(fab.Close)

	const (
		senders   = 8
		perSender = 1000
		size      = 32
	)

	var (
		mu   sync.Mutex
		bad  []string
		next [senders + 1]uint32 // per sender tag: the sequence number due
		n    int
	)
	done := make(chan struct{})

	b := New(fab, security.Plaintext{}, func(d []byte) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case len(d) != size:
			bad = append(bad, "wrong length")
		case d[4] == 0 || d[4] > senders:
			bad = append(bad, "unknown sender tag")
		default:
			tag := d[4]
			for _, c := range d[4:] {
				if c != tag {
					bad = append(bad, "mixed bytes in one datagram")
					break
				}
			}
			if seq := binary.BigEndian.Uint32(d); seq != next[tag] {
				bad = append(bad, fmt.Sprintf("sender %d: got #%d, #%d due", tag, seq, next[tag]))
			}
			next[tag]++
		}
		if n++; n == senders*perSender {
			close(done)
		}
	})
	t.Cleanup(b.Close)
	addrB, err := b.Listen("site-b")
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	a := New(fab, security.Plaintext{}, func([]byte) {})
	a.SetMetrics(reg)
	t.Cleanup(a.Close)

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		tag := byte(s + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				w := wire.GetWriter(size)
				w.Uint32BE(uint32(i))
				for j := 4; j < size; j++ {
					w.Uint8(tag)
				}
				if err := a.Send(addrB, w.Bytes()); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				w.Release()
				// Reuse the pool class immediately and overwrite it —
				// exactly what an unrelated goroutine grabbing the
				// recycled buffer would do. With correct copy-on-append
				// this cannot touch the envelope.
				w2 := wire.GetWriter(size)
				w2.Zero(size)
				w2.Release()
			}
		}()
	}
	wg.Wait()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %d/%d datagrams delivered", n, senders*perSender)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bad) > 0 {
		t.Fatalf("%d bad datagrams, first: %s", len(bad), bad[0])
	}
	if reg.Counter("net.coalesced").Load() == 0 {
		t.Fatal("net.coalesced = 0: no send ever found another in flight")
	}
}
