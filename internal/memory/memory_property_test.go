package memory

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestDataflowConservationProperty drives random dataflow graphs across
// two sites and checks the machine's core invariant: every frame with
// all parameters delivered fires exactly once, regardless of which site
// each parameter came from or in which order they arrived.
func TestDataflowConservationProperty(t *testing.T) {
	_, mems, fires := memCluster(t, 2)
	a, b := mems[0], mems[1]

	// Each uint16 encodes one frame: low bits choose the arity (1..4),
	// the upper bits choose per-slot sender sites (bit i: a or b).
	round := 0
	f := func(jobs []uint16) bool {
		round++
		if len(jobs) > 12 {
			jobs = jobs[:12]
		}
		var ids []types.FrameID
		want := 0
		for _, j := range jobs {
			arity := int(j%4) + 1
			id := a.NewFrame(thread(uint32(round)), arity, types.PriorityNormal, 0)
			ids = append(ids, id)
			want++
			var wg sync.WaitGroup
			for slot := 0; slot < arity; slot++ {
				src := a
				if (j>>(2+slot))&1 == 1 {
					src = b
				}
				wg.Add(1)
				go func(src *Manager, slot int) {
					defer wg.Done()
					_ = src.Send(wire.Target{Addr: id, Slot: int32(slot)}, []byte{byte(slot)})
				}(src, slot)
			}
			wg.Wait()
		}
		// All frames must fire exactly once each.
		deadline := time.Now().Add(5 * time.Second)
		for countFired(fires[0], ids) < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		fired := map[types.FrameID]int{}
		fires[0].mu.Lock()
		for _, fr := range fires[0].frames {
			fired[fr.ID]++
		}
		fires[0].mu.Unlock()
		for _, id := range ids {
			if fired[id] != 1 {
				t.Logf("frame %v fired %d times", id, fired[id])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func countFired(c *fireCollector, ids []types.FrameID) int {
	want := map[types.FrameID]bool{}
	for _, id := range ids {
		want[id] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, fr := range c.frames {
		if want[fr.ID] {
			n++
		}
	}
	return n
}

// TestConcurrentReadWriteCoherence hammers one object from three sites
// with interleaved reads and writes; every read must observe *some*
// write's complete value (no torn or stale-forever data).
func TestConcurrentReadWriteCoherence(t *testing.T) {
	_, mems, _ := memCluster(t, 3)
	owner := mems[0]
	addr := owner.Alloc(prog(), []byte("val-000"))

	valid := sync.Map{}
	valid.Store("val-000", true)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Writers on two sites.
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := fmt.Sprintf("val-%d%02d", w+1, i)
				valid.Store(v, true)
				if err := mems[w+1].Write(addr, 0, []byte(v)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Readers on all three.
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got, err := mems[r].Read(addr)
				if err != nil {
					errs <- err
					return
				}
				if _, ok := valid.Load(string(got)); !ok {
					errs <- fmt.Errorf("torn/unknown read %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSingleFlightFetch verifies that concurrent first reads of one
// remote object produce a single remote fetch.
func TestSingleFlightFetch(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	owner, reader := mems[0], mems[1]
	addr := owner.Alloc(prog(), []byte("shared"))

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reader.Read(addr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s := reader.Stats()
	if s.RemoteReads != 1 {
		t.Fatalf("RemoteReads = %d, want 1 (single flight)", s.RemoteReads)
	}
	if s.ReplicaHits != 7 {
		t.Fatalf("ReplicaHits = %d, want 7", s.ReplicaHits)
	}
	testnet.WaitFor(t, "noop", func() bool { return true })
}
