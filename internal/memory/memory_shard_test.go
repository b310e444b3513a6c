package memory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

func randBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// TestShardedModelEquivalence is the coherence protocol's consistency
// harness. Two phases:
//
//   - sequential: a seeded random Alloc/Read/Write/Attract sequence from
//     both sites of a two-site cluster against a plain single-map
//     reference model, byte-for-byte, including after a full evacuation;
//   - histories: seeded concurrent histories on a three-site cluster.
//     Writers serialize per address and publish a monotonically
//     increasing sequence number; readers and attractors on every site
//     assert each observed value lies between the last committed write
//     (a stale read below this bound means a replica survived an
//     invalidation barrier) and the highest issued write, and never
//     travels backwards within one goroutine. After the history drains,
//     every site must read exactly the committed value — plain and
//     under -race, across 200 seeds.
func TestShardedModelEquivalence(t *testing.T) {
	t.Run("sequential", testModelEquivalenceSequential)
	t.Run("histories", func(t *testing.T) {
		iters := 200
		if testing.Short() {
			iters = 20
		}
		for i := 0; i < iters; i++ {
			consistencyHistory(t, int64(i)*31+42)
			if t.Failed() {
				t.Fatalf("history with seed %d failed", int64(i)*31+42)
			}
		}
	})
}

func testModelEquivalenceSequential(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	a, b := mems[0], mems[1]
	rng := rand.New(rand.NewSource(42))
	model := map[types.GlobalAddr][]byte{}
	var addrs []types.GlobalAddr

	site := func() *Manager {
		if rng.Intn(2) == 0 {
			return a
		}
		return b
	}

	const ops = 400
	for i := 0; i < ops; i++ {
		op := rng.Intn(10)
		switch {
		case op < 2 || len(addrs) == 0: // alloc
			data := randBytes(rng, 1+rng.Intn(32))
			addr := site().Alloc(prog(), data)
			model[addr] = append([]byte(nil), data...)
			addrs = append(addrs, addr)
		case op < 5: // write (possibly remote, possibly extending)
			addr := addrs[rng.Intn(len(addrs))]
			off := rng.Intn(len(model[addr]) + 4)
			data := randBytes(rng, 1+rng.Intn(16))
			if err := site().Write(addr, off, data); err != nil {
				t.Fatalf("op %d: write %v: %v", i, addr, err)
			}
			cur := model[addr]
			if need := off + len(data); need > len(cur) {
				grown := make([]byte, need)
				copy(grown, cur)
				cur = grown
			}
			copy(cur[off:], data)
			model[addr] = cur
		case op < 8: // read
			addr := addrs[rng.Intn(len(addrs))]
			got, err := site().Read(addr)
			if err != nil {
				t.Fatalf("op %d: read %v: %v", i, addr, err)
			}
			if !bytes.Equal(got, model[addr]) {
				t.Fatalf("op %d: read %v = %x, model %x", i, addr, got, model[addr])
			}
		default: // attract (ownership migration)
			addr := addrs[rng.Intn(len(addrs))]
			got, err := site().Attract(addr)
			if err != nil {
				t.Fatalf("op %d: attract %v: %v", i, addr, err)
			}
			if !bytes.Equal(got, model[addr]) {
				t.Fatalf("op %d: attract %v = %x, model %x", i, addr, got, model[addr])
			}
		}
	}

	// Drain site b; the survivor must then serve the whole model.
	if err := b.EvacuateTo(1); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		got, err := a.Read(addr)
		if err != nil {
			t.Fatalf("post-evacuation read %v: %v", addr, err)
		}
		if !bytes.Equal(got, model[addr]) {
			t.Fatalf("post-evacuation read %v = %x, model %x", addr, got, model[addr])
		}
	}
}

// consistencyHistory replays one seeded concurrent read/write/migrate
// history against a three-site cluster and checks per-address
// sequential consistency. Writers hold a per-address mutex, so writes to
// one address are totally ordered; `issued` is advanced before Write
// starts and `committed` after Write returns, giving every concurrent
// read a correctness window: it may see any value a write has started
// publishing, but never one older than the last write whose
// invalidation barrier completed before the read began.
func consistencyHistory(t *testing.T, seed int64) {
	t.Helper()
	_, mems, _ := memCluster(t, 3)
	rng := rand.New(rand.NewSource(seed))

	const (
		numAddrs = 6
		workers  = 4
		opsEach  = 30
	)
	type addrState struct {
		mu        sync.Mutex
		issued    atomic.Uint64
		committed atomic.Uint64
	}
	addrs := make([]types.GlobalAddr, numAddrs)
	states := make([]*addrState, numAddrs)
	for i := range addrs {
		addrs[i] = mems[rng.Intn(len(mems))].Alloc(prog(), make([]byte, 8))
		states[i] = &addrState{}
	}

	// Pre-generate each worker's op stream single-threaded, so the RNG
	// stays deterministic; the schedule interleaving still varies, but
	// the invariants must hold under every interleaving.
	type op struct{ kind, site, addr int }
	plans := make([][]op, workers)
	for w := range plans {
		plans[w] = make([]op, opsEach)
		for i := range plans[w] {
			plans[w][i] = op{kind: rng.Intn(10), site: rng.Intn(len(mems)), addr: rng.Intn(numAddrs)}
		}
	}

	var (
		wg     sync.WaitGroup
		failMu sync.Mutex
		fails  []string
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		failMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// lastSeen is keyed per (addr, site): while a write's
			// invalidation barrier is still in flight, the owner already
			// serves the new value but a replica elsewhere may serve the
			// old one, so cross-site observations only become comparable
			// once the write commits (the lo bound). Within one site,
			// values must never go backwards.
			lastSeen := make([]uint64, numAddrs*len(mems))
			check := func(what string, idx, site int, data []byte, lo, hi uint64) {
				v := binary.BigEndian.Uint64(data)
				if v < lo {
					fail("worker %d: stale %s of %v: seq %d, but %d was committed before the %s began",
						w, what, addrs[idx], v, lo, what)
				}
				if v > hi {
					fail("worker %d: phantom %s of %v: seq %d, but only %d was ever issued", w, what, addrs[idx], v, hi)
				}
				k := idx*len(mems) + site
				if v < lastSeen[k] {
					fail("worker %d: %s of %v at site %d went backwards: %d after %d",
						w, what, addrs[idx], site+1, v, lastSeen[k])
				}
				lastSeen[k] = v
			}
			for _, o := range plans[w] {
				st, m := states[o.addr], mems[o.site]
				switch {
				case o.kind < 4: // write the next sequence value
					st.mu.Lock()
					seq := st.issued.Load() + 1
					st.issued.Store(seq)
					var buf [8]byte
					binary.BigEndian.PutUint64(buf[:], seq)
					err := m.Write(addrs[o.addr], 0, buf[:])
					if err == nil {
						st.committed.Store(seq)
					}
					st.mu.Unlock()
					if err != nil {
						fail("worker %d: write %v: %v", w, addrs[o.addr], err)
						return
					}
				case o.kind < 9: // read
					lo := st.committed.Load()
					data, err := m.Read(addrs[o.addr])
					if err != nil {
						fail("worker %d: read %v: %v", w, addrs[o.addr], err)
						return
					}
					check("read", o.addr, o.site, data, lo, st.issued.Load())
				default: // attract: ownership migration mid-history
					lo := st.committed.Load()
					data, err := m.Attract(addrs[o.addr])
					if err != nil {
						fail("worker %d: attract %v: %v", w, addrs[o.addr], err)
						return
					}
					check("attract", o.addr, o.site, data, lo, st.issued.Load())
				}
			}
		}(w)
	}
	wg.Wait()
	for _, f := range fails {
		t.Errorf("seed %d: %s", seed, f)
	}
	if t.Failed() {
		return
	}

	// Quiescent: every write has returned, so its invalidation barrier
	// completed. Every site must now read exactly the committed value;
	// anything less is a replica that survived an invalidation.
	for idx, addr := range addrs {
		want := states[idx].committed.Load()
		for si, m := range mems {
			data, err := m.Read(addr)
			if err != nil {
				t.Fatalf("seed %d: quiescent read %v at site %d: %v", seed, addr, si+1, err)
			}
			if v := binary.BigEndian.Uint64(data); v != want {
				t.Fatalf("seed %d: quiescent read %v at site %d = seq %d, want %d (stale replica survived the barrier)",
					seed, addr, si+1, v, want)
			}
		}
	}

	// Graceful sign-off: drain the third site; survivors must still
	// agree (evacuation flushes its copysets and re-homes its objects).
	if err := mems[2].EvacuateTo(1); err != nil {
		t.Fatalf("seed %d: evacuate: %v", seed, err)
	}
	for idx, addr := range addrs {
		want := states[idx].committed.Load()
		for si, m := range mems[:2] {
			data, err := m.Read(addr)
			if err != nil {
				t.Fatalf("seed %d: post-evacuation read %v at site %d: %v", seed, addr, si+1, err)
			}
			if v := binary.BigEndian.Uint64(data); v != want {
				t.Fatalf("seed %d: post-evacuation read %v at site %d = seq %d, want %d",
					seed, addr, si+1, v, want)
			}
		}
	}
}

// TestShardedConcurrentStress hammers one manager from many goroutines:
// partitioned writers bump per-address counters while readers assert the
// values never go backwards, and a dataflow mix of frames fires
// alongside. Run under -race this is the sharding's main safety net.
func TestShardedConcurrentStress(t *testing.T) {
	_, mems, fires := memCluster(t, 1)
	m := mems[0]

	const (
		writers   = 8
		perWriter = 16
		rounds    = 40
	)
	addrs := make([]types.GlobalAddr, writers*perWriter)
	for i := range addrs {
		addrs[i] = m.Alloc(prog(), make([]byte, 8))
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		mine := addrs[w*perWriter : (w+1)*perWriter]
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for r := 1; r <= rounds; r++ {
				for _, addr := range mine {
					binary.BigEndian.PutUint64(buf, uint64(r))
					if err := m.Write(addr, 0, buf); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	// Readers assert per-address monotonicity: a counter that decreases
	// means a lost or reordered write inside the sharded state.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			last := map[types.GlobalAddr]uint64{}
			for i := 0; i < writers*perWriter*rounds/4; i++ {
				addr := addrs[rng.Intn(len(addrs))]
				got, err := m.Read(addr)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				v := binary.BigEndian.Uint64(got)
				if v < last[addr] {
					t.Errorf("read of %v went backwards: %d after %d", addr, v, last[addr])
					return
				}
				last[addr] = v
			}
		}(int64(r) + 7)
	}
	// Dataflow mix: frames created and completed concurrently with the
	// object traffic must all fire exactly once.
	const frames = 64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			id := m.NewFrame(thread(uint32(1000+i)), 1, types.PriorityNormal, 0)
			if err := m.Send(wire.Target{Addr: id, Slot: 0}, []byte{1}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got := fires[0].count(); got != frames {
		t.Fatalf("%d frames fired, want %d", got, frames)
	}
	for i, addr := range addrs {
		got, err := m.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.BigEndian.Uint64(got); v != rounds {
			t.Fatalf("addr %d final counter = %d, want %d", i, v, rounds)
		}
	}
	t.Logf("shard contention under stress: %d", m.Stats().ShardContention)
}

// TestShardDistribution pins the shardIndex hash: sequentially allocated
// addresses (the overwhelmingly common pattern) must spread across all
// shards instead of clustering, or the sharding buys nothing.
func TestShardDistribution(t *testing.T) {
	counts := map[uint64]int{}
	const n = 1 << 10
	for i := uint64(1); i <= n; i++ {
		counts[shardIndex(types.GlobalAddr{Home: 1, Local: i})]++
	}
	if len(counts) != shardCount {
		t.Fatalf("%d shards used, want %d", len(counts), shardCount)
	}
	for s, c := range counts {
		// Perfectly uniform would be n/shardCount; allow 2x skew.
		if c > 2*n/shardCount {
			t.Fatalf("shard %d got %d of %d addresses", s, c, n)
		}
	}
}

// grantedFrame builds a waiting one-slot frame homed at granter that
// lives nowhere yet, as a frame handed to a peer in a help reply does:
// it left the granter's queue and is known only to the grant log.
func grantedFrame(granter *Manager, idx uint32) *wire.Microframe {
	return wire.NewMicroframe(granter.newAddr(), thread(idx), 1)
}

// TestReclaimGrantsIsExclusiveWithCrashReplay pins the hand-back the
// scheduler uses when a help reply bounces off a departed requester:
// reclaimed frames leave the grant log, so a later crash declaration
// for the same grantee replays only what was never taken back — each
// frame re-enters the dataflow exactly once.
func TestReclaimGrantsIsExclusiveWithCrashReplay(t *testing.T) {
	_, mems, _ := memCluster(t, 2)
	granter := mems[0]

	const n = 6
	var ids []types.FrameID
	for i := 0; i < n; i++ {
		f := grantedFrame(granter, uint32(i))
		granter.RecordGrant(2, f)
		ids = append(ids, f.ID)
	}

	back := granter.ReclaimGrants(2, ids[:3])
	if len(back) != 3 {
		t.Fatalf("reclaimed %d frames, want 3", len(back))
	}
	got := map[types.FrameID]bool{}
	for _, f := range back {
		got[f.ID] = true
	}
	for _, id := range ids[:3] {
		if !got[id] {
			t.Fatalf("frame %v missing from the reclaimed set", id)
		}
	}

	// The crash declaration replays only the half still in the log.
	granter.OnSiteCrashed(2, nil)
	if c := granter.FrameCount(); c != 3 {
		t.Fatalf("%d frames replayed after partial reclaim, want 3", c)
	}
	// And nothing is left to reclaim: the log entry was consumed.
	if rest := granter.ReclaimGrants(2, ids); len(rest) != 0 {
		t.Fatalf("%d frames reclaimed from a consumed log", len(rest))
	}
}

// TestBatchGrantSurvivesGranterCrash models a batched help-grant: N
// frames handed to one peer in a single reply, logged individually, all
// re-injected into the local dataflow when that peer is declared dead.
func TestBatchGrantSurvivesGranterCrash(t *testing.T) {
	_, mems, fires := memCluster(t, 2)
	granter := mems[0]

	const n = 8
	var ids []types.FrameID
	for i := 0; i < n; i++ {
		f := grantedFrame(granter, uint32(i))
		granter.RecordGrant(2, f)
		ids = append(ids, f.ID)
	}
	if got := granter.FrameCount(); got != 0 {
		t.Fatalf("%d frames still resident after grant", got)
	}

	granter.OnSiteCrashed(2, nil)
	if got := granter.FrameCount(); got != n {
		t.Fatalf("%d frames recovered from grant log, want %d", got, n)
	}

	// Completing the recovered frames fires each exactly once.
	for _, id := range ids {
		if err := granter.Send(wire.Target{Addr: id, Slot: 0}, []byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fires[0].count() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := fires[0].count(); got != n {
		t.Fatalf("%d recovered frames fired, want %d", got, n)
	}
	// A second crash notice must not duplicate anything: the log was
	// consumed by the first replay.
	granter.OnSiteCrashed(2, nil)
	if got := granter.FrameCount(); got != 0 {
		t.Fatalf("%d frames after duplicate crash notice, want 0", got)
	}
}
