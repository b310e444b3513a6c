// Performance experiments behind the hot-path pass: sharded attraction
// memory, gossip membership at scale and read replicas. These are the
// P-experiments the BENCH_N.json trajectory points record next to the O-1
// overhead point; DESIGN.md §9 explains what each one locks in.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/types"
)

// MemStressResult is the P-1 sharded-memory throughput measurement.
type MemStressResult struct {
	Procs      int     // GOMAXPROCS of the parallel phase
	Ops1       float64 // ops/sec with GOMAXPROCS=1
	OpsN       float64 // ops/sec with GOMAXPROCS=Procs
	Scaling    float64 // OpsN / Ops1
	Contention uint64  // shard-lock waits over the whole run
}

// MemStress hammers one site's attraction memory from `workers`
// goroutines doing partitioned writes and reads of their own objects,
// once pinned to a single CPU and once at `procs`, and reports the
// throughput ratio. On a single-mutex manager the ratio stays ≈1 no
// matter how many CPUs the host has; the sharded manager tracks the
// available parallelism (the ratio is necessarily ≈1 on a single-core
// host too — the shard-contention counter is the signal there).
func MemStress(spec Spec, workers, addrsPerWorker, rounds, procs int) (MemStressResult, error) {
	s := spec
	s.Sites = 1
	s.Metrics = true
	c, err := NewCluster(s)
	if err != nil {
		return MemStressResult{}, err
	}
	defer c.Close()
	mem := c.Daemons[0].Mem

	pid := types.MakeProgramID(1, 1)
	addrs := make([]types.GlobalAddr, workers*addrsPerWorker)
	for i := range addrs {
		addrs[i] = mem.Alloc(pid, make([]byte, 64))
	}

	phase := func(p int) (float64, error) {
		prev := runtime.GOMAXPROCS(p)
		defer runtime.GOMAXPROCS(prev)
		var (
			wg       sync.WaitGroup
			errOnce  sync.Once
			firstErr error
		)
		fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
		start := time.Now()
		for w := 0; w < workers; w++ {
			mine := addrs[w*addrsPerWorker : (w+1)*addrsPerWorker]
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, 64)
				for r := 0; r < rounds; r++ {
					for _, a := range mine {
						if err := mem.Write(a, 0, buf); err != nil {
							fail(fmt.Errorf("worker %d write: %w", w, err))
							return
						}
						if _, err := mem.Read(a); err != nil {
							fail(fmt.Errorf("worker %d read: %w", w, err))
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if firstErr != nil {
			return 0, firstErr
		}
		return float64(2*workers*addrsPerWorker*rounds) / elapsed.Seconds(), nil
	}

	ops1, err := phase(1)
	if err != nil {
		return MemStressResult{}, err
	}
	opsN, err := phase(procs)
	if err != nil {
		return MemStressResult{}, err
	}
	return MemStressResult{
		Procs:      procs,
		Ops1:       ops1,
		OpsN:       opsN,
		Scaling:    opsN / ops1,
		Contention: mem.Stats().ShardContention,
	}, nil
}

// ScaleStormPoint is one cluster size of the P-4 membership-at-scale
// measurement.
type ScaleStormPoint struct {
	Sites      int
	JoinMS     float64 // wall-clock for the sequential sign-on wave
	ConvergeMS float64 // ...until every site's roster holds every site
	LeaveMS    float64 // ...until one sign-off tombstone reaches all rosters
	Converged  bool
}

// ScaleStorm builds clusters of the given sizes and measures membership
// dissemination at scale. A sign-on is not broadcast — late joiners get
// the roster from the sign-on snapshot, the contact pushes the
// newcomer's row to a fanout of peers, and every other earlier site
// learns of it only through bounded epidemic digests — so full roster
// convergence is a direct measurement of the protocol's O(log N)
// dissemination. The final phase signs one site off and times the Left
// tombstone's spread back across every roster. Gossip runs these sizes
// at O(N·fanout) messages per tick.
func ScaleStorm(sizes []int, workUnit time.Duration) ([]ScaleStormPoint, error) {
	out := make([]ScaleStormPoint, 0, len(sizes))
	for _, n := range sizes {
		pt, err := scaleStormOne(n, workUnit)
		if err != nil {
			return out, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func scaleStormOne(n int, workUnit time.Duration) (ScaleStormPoint, error) {
	pt := ScaleStormPoint{Sites: n}
	start := time.Now()
	c, err := NewCluster(Spec{Sites: n, WorkUnit: workUnit})
	if err != nil {
		return pt, err
	}
	defer c.Close()
	pt.JoinMS = float64(time.Since(start)) / float64(time.Millisecond)

	full := func(want int, skip int) bool {
		for i, d := range c.Daemons {
			if i == skip {
				continue
			}
			if d.CM.Size() != want {
				return false
			}
		}
		return true
	}
	// Generous deadline: the dissemination itself is seconds even at
	// 256 sites, but a saturated CI host runs 256 daemons' goroutines
	// far slower than wall-clock gossip math suggests.
	wait := func(cond func() bool) bool {
		deadline := time.Now().Add(120 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return cond()
	}

	if !wait(func() bool { return full(n, -1) }) {
		return pt, fmt.Errorf("bench: scalestorm %d sites: rosters did not converge", n)
	}
	pt.ConvergeMS = float64(time.Since(start)) / float64(time.Millisecond)

	// SignOff runs in the background: LeaveMS measures how fast the
	// Left tombstone reaches every roster (the protocol property), not
	// how long the leaver's local transport teardown takes.
	leaveStart := time.Now()
	leaver := len(c.Daemons) - 1
	signedOff := make(chan error, 1)
	go func() { signedOff <- c.Daemons[leaver].SignOff() }()
	if !wait(func() bool { return full(n-1, leaver) }) {
		return pt, fmt.Errorf("bench: scalestorm %d sites: sign-off did not disseminate", n)
	}
	pt.LeaveMS = float64(time.Since(leaveStart)) / float64(time.Millisecond)
	if err := <-signedOff; err != nil {
		return pt, fmt.Errorf("bench: scalestorm %d sites: sign-off: %w", n, err)
	}
	pt.Converged = true
	return pt, nil
}

// MemReadResult is the P-5 read-replica measurement.
type MemReadResult struct {
	Ops         float64 // reads/sec
	ReplicaHits uint64  // reads served from a local replica
	Remote      uint64  // reads that crossed the network
	Writes      uint64  // background owner writes during the run (invalidation traffic)

	// Metrics is the run's cluster-wide counter totals, so the trajectory
	// report carries mem.replica.hits and mem.replica.invalidations next
	// to the derived numbers.
	Metrics map[string]int64
}

// MemRead measures the read-replica protocol on a read-hot working set:
// `readers` goroutines on every non-owner site sweep the owner's objects
// `rounds` times while the owner keeps writing in the background (so
// invalidations are part of the measurement, not assumed away). All but
// the first fault-in per (site, object) — and the re-faults after each
// invalidation — are served locally.
func MemRead(spec Spec, readers, objects, rounds int) (MemReadResult, error) {
	if spec.Link.Latency == 0 {
		spec.Link.Latency = 200 * time.Microsecond
	}
	s := spec
	s.Sites = 4
	s.Metrics = true
	c, err := NewCluster(s)
	if err != nil {
		return MemReadResult{}, err
	}
	defer c.Close()

	own := c.Daemons[0].Mem
	pid := types.MakeProgramID(1, 1)
	addrs := make([]types.GlobalAddr, objects)
	for i := range addrs {
		addrs[i] = own.Alloc(pid, make([]byte, 64))
	}

	// Background writer: steady owner-side stores, so the run prices in
	// invalidation rounds and replica re-faults.
	stop := make(chan struct{})
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	var wrote uint64
	go func() {
		defer writerDone.Done()
		buf := make([]byte, 64)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				if own.Write(addrs[i%len(addrs)], 0, buf) == nil {
					wrote++
				}
			}
		}
	}()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	start := time.Now()
	for site := 1; site < s.Sites; site++ {
		mem := c.Daemons[site].Mem
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(site, w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for _, a := range addrs {
						if _, err := mem.Read(a); err != nil {
							fail(fmt.Errorf("site %d reader %d: %w", site, w, err))
							return
						}
					}
				}
			}(site, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	writerDone.Wait()
	if firstErr != nil {
		return MemReadResult{}, firstErr
	}
	res := MemReadResult{Writes: wrote, Metrics: c.MetricsTotals()}
	for _, d := range c.Daemons {
		st := d.Mem.Stats()
		res.ReplicaHits += st.ReplicaHits
		res.Remote += st.RemoteReads
	}
	res.Ops = float64((s.Sites-1)*readers*objects*rounds) / elapsed.Seconds()
	return res, nil
}
