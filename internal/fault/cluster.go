package fault

import (
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/internal/exec"
	"repro/internal/transport/inproc"
)

// ClusterConfig sizes a chaos cluster.
type ClusterConfig struct {
	// Sites is the initial site count; site 0 bootstraps and is the
	// workload submitter (scenarios never crash it — the paper's model
	// has the frontend outlive the computation).
	Sites int
	// Seed drives every PRNG in the run: the per-link fault schedules
	// and each daemon's retry jitter.
	Seed int64
	// Link is the default fault profile applied to every directed link.
	Link LinkFaults
	// Checkpoint enables the crash-management stack (checkpoints,
	// heartbeats, crash declaration). Required by scenarios that crash
	// or partition sites.
	Checkpoint bool
	// WorkUnit is the wall-clock span of one simulated Work unit
	// (default 200µs).
	WorkUnit time.Duration
}

// Site is one daemon instance in a chaos cluster. A rejoin after a
// crash creates a new instance (fresh address, fresh logical id); the
// old one is retired but kept for post-run trace scans.
type Site struct {
	Index int    // stable site slot (0-based)
	Gen   int    // instance generation within the slot (0 = original)
	Addr  string // physical address on the fault network
	D     *daemon.Daemon
	Alive bool
}

// Cluster is a running chaos cluster: n full daemons wired through one
// fault.Network over an in-process fabric.
type Cluster struct {
	Net *Network
	cfg ClusterConfig

	inner *inproc.Fabric
	// Sites holds the current instance of each slot; Retired holds
	// crashed/left instances whose traces the invariant checker still
	// scans. Steps run strictly sequentially from the scenario loop,
	// so no lock is needed.
	Sites   []*Site
	Retired []*Site
}

// NewCluster builds and signs on a chaos cluster. Faults (and the fault
// schedule PRNGs) are live from the first sign-on datagram.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if cc.Sites <= 0 {
		cc.Sites = 4
	}
	if cc.WorkUnit <= 0 {
		cc.WorkUnit = 200 * time.Microsecond
	}
	inner := inproc.New(inproc.LinkProfile{})
	c := &Cluster{
		inner: inner,
		Net:   NewNetwork(inner, NetConfig{Seed: cc.Seed, Default: cc.Link}),
		cfg:   cc,
	}
	for i := 0; i < cc.Sites; i++ {
		s, err := c.startSite(i, 0)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Sites = append(c.Sites, s)
	}
	return c, nil
}

// siteAddr names one site instance: "chaos-2" originally, "chaos-2r1"
// after its first rejoin. Fresh addresses keep a rejoined site from
// inheriting its dead predecessor's half-open connections.
func siteAddr(index, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("chaos-%d", index)
	}
	return fmt.Sprintf("chaos-%dr%d", index, gen)
}

// startSite builds, starts, and signs on one site instance.
func (c *Cluster) startSite(index, gen int) (*Site, error) {
	addr := siteAddr(index, gen)
	cfg := daemon.Config{
		PhysAddr:      addr,
		Network:       c.Net.Host(addr),
		WorkModel:     exec.WorkSimulated,
		WorkUnit:      c.cfg.WorkUnit,
		Reliable:      true,
		Metrics:       true,
		TraceCapacity: 65536,
		Seed:          c.cfg.Seed*1000 + int64(index) + 1,
	}
	if c.cfg.Checkpoint {
		cfg.Checkpoint.Interval = 150 * time.Millisecond
		cfg.Checkpoint.HeartbeatEvery = 100 * time.Millisecond
		cfg.Checkpoint.HeartbeatTimeout = 50 * time.Millisecond
		// 600 ms of silence declares a crash: long enough that the
		// straggler scenario's stalls stay below it, short enough that
		// recovery fits a CI deadline.
		cfg.Checkpoint.MissLimit = 6
	}
	d := daemon.New(cfg)
	c.Net.BindMetrics(addr, d.Metrics)
	var err error
	if index == 0 && gen == 0 {
		err = d.Bootstrap()
	} else {
		contact := c.contactAddr()
		if contact == "" {
			return nil, fmt.Errorf("fault: no live site for %s to join", addr)
		}
		err = d.Join(contact)
	}
	if err != nil {
		return nil, fmt.Errorf("fault: site %s: %w", addr, err)
	}
	return &Site{Index: index, Gen: gen, Addr: addr, D: d, Alive: true}, nil
}

// contactAddr returns the address of the lowest-numbered live site.
func (c *Cluster) contactAddr() string {
	for _, s := range c.Sites {
		if s != nil && s.Alive {
			return s.Addr
		}
	}
	return ""
}

// Instances returns every site instance the cluster ever ran, current
// and retired, for whole-run trace scans.
func (c *Cluster) Instances() []*Site {
	out := make([]*Site, 0, len(c.Sites)+len(c.Retired))
	out = append(out, c.Retired...)
	out = append(out, c.Sites...)
	return out
}

// LiveCount returns how many sites are currently alive.
func (c *Cluster) LiveCount() int {
	n := 0
	for _, s := range c.Sites {
		if s.Alive {
			n++
		}
	}
	return n
}

// Close kills every remaining daemon and the fabric.
func (c *Cluster) Close() {
	for _, s := range c.Sites {
		if s != nil && s.Alive {
			s.D.Kill()
			s.Alive = false
		}
	}
	c.inner.Close()
}

// poll re-evaluates cond every 2ms until it holds or timeout expires.
func poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}
