package main

import (
	"fmt"
	"time"

	sdvm "repro"
	"repro/internal/transport/inproc"
)

// clusterSecret is the start secret of the TCP clusters: AES-GCM is part
// of the deployed configuration, so the *-tcp and mem-* workloads pay for
// it.
const clusterSecret = "sdvm-benchmark"

// workUnit is the wall-clock span of Work(1.0) at speed 1 on every site.
const workUnit = time.Millisecond

// clusterSpec is the deployed configuration of one workload's cluster.
type clusterSpec struct {
	// tcp selects TCP loopback with AES-GCM sealing; otherwise the sites
	// share an in-process fabric with zero latency and plaintext.
	tcp bool
	// speeds has one relative speed per site and so fixes the site count.
	speeds []float64
	// crashMgmt turns periodic checkpoints and heartbeats on.
	crashMgmt bool
}

func (s clusterSpec) sites() int { return len(s.speeds) }

// uniform returns n sites of speed 1.
func uniform(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// cluster is one built SDVM cluster.
type cluster struct {
	sites  []*sdvm.Site
	fabric *inproc.Fabric // nil for TCP
}

// close stops the cluster. Every source of new traffic on every site is
// shut before the first listener goes away: an in-process listener that
// closes while a peer dials it makes inproc.Fabric.Dial panic (send on the
// closed backlog channel), and idle sites dial all the time with help
// requests, so killing the sites one by one as sdvm.LocalCluster.Close
// does crashed one run in ten of primes-hetero. Closing the buses first
// also fails the help requests in flight at once instead of after their
// 250 ms time-out, which keeps the repeated set-ups of a run cheap.
func (c *cluster) close() {
	for _, s := range c.sites {
		s.Daemon.Bus.Close()
		s.Daemon.Sched.Close()
		s.Daemon.Ckpt.Close()
		s.Daemon.Site.Close()
	}
	for _, s := range c.sites {
		s.Daemon.Exec.Wait()
	}
	for _, s := range c.sites {
		s.Kill()
	}
	if c.fabric != nil {
		c.fabric.Close()
	}
}

// closeWithin is close for a cluster that may be wedged: a dead-locked
// site never lets its workers go, and the run that found the dead-lock
// must still report it. It reports whether the cluster stopped in time; if
// not, the goroutine stays behind until the process exits.
func (c *cluster) closeWithin(d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.close()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// rosterWait bounds how long set-up waits for every site to list every
// other (sign-on announcements are asynchronous).
const rosterWait = 10 * time.Second

// buildCluster boots the cluster through sdvm.Bootstrap/Join exactly as
// sdvmd does and returns it with its set-up time: first Bootstrap call
// until every site's roster holds every site. metrics turns the per-site
// registries on (traced pass only); rec, when non-nil, gets one span per
// sign-on.
func buildCluster(spec clusterSpec, metrics bool, rec *recorder) (*cluster, time.Duration, error) {
	c := &cluster{}
	if !spec.tcp {
		c.fabric = inproc.New(inproc.LinkProfile{})
	}
	start := time.Now()
	setup := rec.begin(spanSetup, noSpan, 0)
	contact := ""
	for i, speed := range spec.speeds {
		o := sdvm.Options{
			Speed:         speed,
			SimulatedWork: true,
			WorkUnit:      workUnit,
			Metrics:       metrics,
			Seed:          int64(i + 1),
		}
		if spec.tcp {
			o.Secret = clusterSecret
		} else {
			o.Network = c.fabric
			o.Addr = fmt.Sprintf("site-%d", i)
		}
		if spec.crashMgmt {
			o.CheckpointEvery = 250 * time.Millisecond
			o.HeartbeatEvery = 100 * time.Millisecond
		}
		var (
			s   *sdvm.Site
			err error
		)
		if i == 0 {
			s, err = sdvm.Bootstrap(o)
		} else {
			sp := rec.begin(spanSignOn, setup, 0)
			s, err = sdvm.Join(contact, o)
			rec.end(sp)
		}
		if err != nil {
			c.close()
			return nil, 0, fmt.Errorf("site %d: %w", i, err)
		}
		c.sites = append(c.sites, s)
		if i == 0 {
			contact, err = s.Daemon.CM.PhysAddr(s.ID())
			if err != nil {
				c.close()
				return nil, 0, fmt.Errorf("bootstrap address: %w", err)
			}
		}
	}
	if !pollUntil(rosterWait, func() bool {
		for _, s := range c.sites {
			if s.Daemon.CM.Size() != len(c.sites) {
				return false
			}
		}
		return true
	}) {
		c.close()
		return nil, 0, fmt.Errorf("rosters did not converge on %d sites", len(c.sites))
	}
	rec.end(setup)
	return c, time.Since(start), nil
}

// pollUntil re-checks cond every 200µs until it holds or the timeout
// passes, and reports whether it held.
func pollUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		if cond() {
			return true
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			return cond()
		}
	}
}

// executed sums the microthreads run on every site.
func (c *cluster) executed() uint64 {
	var n uint64
	for _, s := range c.sites {
		n += s.Daemon.Exec.Executed()
	}
	return n
}

// registryTotals sums every site's metrics registry by instrument name
// (empty when the registries are off).
func (c *cluster) registryTotals() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range c.sites {
		for _, sample := range s.Daemon.Metrics.Snapshot() {
			out[sample.Name] += sample.Value
		}
	}
	return out
}
