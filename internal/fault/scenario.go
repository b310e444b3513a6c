// Scenario engine: scripted failure timelines run against a live chaos
// cluster, reported as deterministic JSON.
//
// A scenario is a workload (the primes program of paper §5) plus an
// ordered list of steps at fixed offsets from submission. The engine
// builds the cluster, submits, replays the timeline, waits for the
// result, then checks the survivability invariants (invariants.go).
//
// One design note on drops: the SDVM message layer assumes TCP-like
// links — delivery is reliable and FIFO per connection, and several
// messages (ApplyParam, frame pushes) are fire-and-forget on that
// assumption. Randomly dropping single datagrams therefore models a
// fault the deployed system can never see (TCP either delivers or
// breaks the whole connection). The canned scenarios respect that:
// sustained loss appears as partitions and crashes (connection-level
// faults the crash management layer is built for), while the lossy-link
// scenario degrades links with delay, reordering, duplication and a
// bandwidth cap — the faults a live TCP link really exhibits.
package fault

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/workloads"
)

// StepKind names one scripted fault action.
type StepKind string

const (
	StepCrash     StepKind = "crash"     // hard-kill a site (no sign-off)
	StepLeave     StepKind = "leave"     // graceful sign-off
	StepStall     StepKind = "stall"     // freeze dispatch for Dur
	StepRejoin    StepKind = "rejoin"    // replace a dead site with a fresh instance
	StepPartition StepKind = "partition" // split the network into Groups
	StepHeal      StepKind = "heal"      // remove all partitions
)

// Step is one timed action of a scenario.
type Step struct {
	At     time.Duration `json:"-"`
	AtMS   int64         `json:"at_ms"` // At, JSON-stable
	Kind   StepKind      `json:"kind"`
	Site   int           `json:"site,omitempty"`
	Dur    time.Duration `json:"-"`
	DurMS  int64         `json:"dur_ms,omitempty"` // Dur, JSON-stable
	Groups [][]int       `json:"groups,omitempty"` // partition: groups of site indices
}

// Scenario is a scripted chaos run.
type Scenario struct {
	Name string `json:"name"`
	Desc string `json:"desc"`

	Sites int        `json:"sites"`
	Link  LinkFaults `json:"-"` // default faults on every link
	Steps []Step     `json:"steps"`

	// Workload: find the first Primes primes, Width candidates in
	// parallel, Cost work units per candidate test.
	Primes int     `json:"primes"`
	Width  int     `json:"width"`
	Cost   float64 `json:"cost"`

	// Deadline bounds the wait for the program result.
	Deadline time.Duration `json:"-"`

	// Checkpoint enables the crash-management stack.
	Checkpoint bool `json:"checkpoint"`
}

// disruptive reports whether the scenario kills or isolates sites —
// which makes recovery at-least-once, waiving cluster-wide
// exactly-once (effect-level dedup still guarantees the result).
func (sc Scenario) disruptive() bool {
	for _, st := range sc.Steps {
		switch st.Kind {
		case StepCrash, StepPartition, StepRejoin:
			return true
		}
	}
	return false
}

// duplicating reports whether the link profile can deliver a datagram
// twice, which waives the per-site duplicate-execution check (a
// duplicated one-way frame push may legitimately double-enqueue).
func (sc Scenario) duplicating() bool { return sc.Link.DupProb > 0 }

// expectedLive computes how many sites the final roster should hold.
func (sc Scenario) expectedLive() int {
	n := sc.Sites
	dead := make(map[int]bool)
	for _, st := range sc.Steps {
		switch st.Kind {
		case StepCrash, StepLeave:
			if !dead[st.Site] {
				dead[st.Site] = true
				n--
			}
		case StepRejoin:
			if dead[st.Site] {
				delete(dead, st.Site)
				n++
			}
		}
	}
	return n
}

// ms is the scenario tables' shorthand for millisecond timestamps. A
// declared function (not a closure) so detpath can resolve the calls.
//
//sdvm:deterministic
func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

// Scenarios returns the canned scenario suite, in run order.
//
//sdvm:deterministic
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "lossy-link",
			Desc: "every link jitters, reorders, duplicates and caps bandwidth; the dataflow must still converge",
			Link: LinkFaults{
				DelayProb: 0.25, DelayMin: 200 * time.Microsecond, DelayMax: 3 * time.Millisecond,
				ReorderProb: 0.10, ReorderBy: 2 * time.Millisecond,
				DupProb:        0.05,
				BytesPerSecond: 4 << 20,
			},
			Sites: 4, Primes: 40, Width: 8, Cost: 5,
			Deadline: 30 * time.Second,
		},
		{
			Name:  "straggler-site",
			Desc:  "one site repeatedly freezes below the crash-declaration threshold; it must be waited out, not buried",
			Sites: 4, Primes: 50, Width: 8, Cost: 5,
			Checkpoint: true,
			Steps: []Step{
				{At: ms(50), Kind: StepStall, Site: 2, Dur: ms(300)},
				{At: ms(500), Kind: StepStall, Site: 2, Dur: ms(200)},
			},
			Deadline: 30 * time.Second,
		},
		{
			Name:  "split-brain-heal",
			Desc:  "a minority site is cut off, declared crashed and recovered; the network heals and a fresh site takes its slot",
			Sites: 4, Primes: 50, Width: 8, Cost: 10,
			Checkpoint: true,
			Steps: []Step{
				{At: ms(150), Kind: StepPartition, Groups: [][]int{{0, 1, 2}, {3}}},
				{At: ms(900), Kind: StepCrash, Site: 3},
				{At: ms(1000), Kind: StepHeal},
				{At: ms(1400), Kind: StepRejoin, Site: 3},
			},
			Deadline: 40 * time.Second,
		},
		{
			Name:  "rolling-restart",
			Desc:  "every non-submitter site is hard-crashed and replaced in turn while the program runs",
			Sites: 4, Primes: 60, Width: 8, Cost: 25,
			Checkpoint: true,
			Steps: []Step{
				{At: ms(300), Kind: StepCrash, Site: 1},
				{At: ms(1200), Kind: StepRejoin, Site: 1},
				{At: ms(2000), Kind: StepCrash, Site: 2},
				{At: ms(2900), Kind: StepRejoin, Site: 2},
				{At: ms(3700), Kind: StepCrash, Site: 3},
				{At: ms(4600), Kind: StepRejoin, Site: 3},
			},
			Deadline: 45 * time.Second,
		},
		{
			Name:  "crash-during-checkpoint",
			Desc:  "a site dies between checkpoint epochs; replicas plus sender logs must reconstruct its state",
			Sites: 4, Primes: 50, Width: 8, Cost: 20,
			Checkpoint: true,
			Steps: []Step{
				{At: ms(475), Kind: StepCrash, Site: 2},
				{At: ms(1600), Kind: StepRejoin, Site: 2},
			},
			Deadline: 40 * time.Second,
		},
		{
			Name: "replica-storm",
			Desc: "replica holders are cut off from the home mid-write-burst, declared crashed and replaced — twice; writes must wait out the invalidation deadline and the crash path must reclaim every replica and copyset entry",
			// Each squall isolates one helper past the crash threshold
			// (HeartbeatEvery × MissLimit ≈ 600 ms) while the dataflow is
			// writing hard: the home's invalidations to the lost site go
			// unacked (the 500 ms best-effort deadline is exercised, not
			// just configured), and the crash declaration must purge its
			// replicas, copyset entries and heat counters before the
			// replacement joins.
			Sites: 4, Primes: 50, Width: 8, Cost: 10,
			Checkpoint: true,
			Steps: []Step{
				{At: ms(150), Kind: StepPartition, Groups: [][]int{{0, 1, 2}, {3}}},
				{At: ms(900), Kind: StepCrash, Site: 3},
				{At: ms(1000), Kind: StepHeal},
				{At: ms(1400), Kind: StepRejoin, Site: 3},
				{At: ms(1900), Kind: StepPartition, Groups: [][]int{{0, 1, 3}, {2}}},
				{At: ms(2650), Kind: StepCrash, Site: 2},
				{At: ms(2750), Kind: StepHeal},
				{At: ms(3150), Kind: StepRejoin, Site: 2},
			},
			Deadline: 45 * time.Second,
		},
		{
			Name:  "churn-storm",
			Desc:  "leaves, crashes, stalls and rejoins overlap at gossip scale — the paper's adaptive-cluster claim under concurrent churn",
			Sites: 64, Primes: 60, Width: 8, Cost: 20,
			Checkpoint: true,
			Steps: []Step{
				{At: ms(250), Kind: StepLeave, Site: 4},
				{At: ms(500), Kind: StepCrash, Site: 3},
				{At: ms(1400), Kind: StepRejoin, Site: 3},
				{At: ms(1600), Kind: StepStall, Site: 1, Dur: ms(250)},
				{At: ms(2000), Kind: StepRejoin, Site: 4},
				{At: ms(2500), Kind: StepCrash, Site: 2},
				{At: ms(3400), Kind: StepRejoin, Site: 2},
			},
			Deadline: 60 * time.Second,
		},
	}
}

// Lookup finds a canned scenario by name.
//
//sdvm:deterministic
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// SchedulePreview is the first few fault decisions of one directed
// link, reproduced purely from (config, seed) — the report's proof that
// the schedule is a function of the seed, not the run.
type SchedulePreview struct {
	Src       string     `json:"src"`
	Dst       string     `json:"dst"`
	Decisions []Decision `json:"decisions"`
}

// Report is one scenario run's outcome. Every field is deterministic
// for a given (scenario, seed): wall-clock readings and fault-counter
// totals (which depend on goroutine interleaving) deliberately stay
// out, so two runs with the same seed produce byte-identical JSON.
type Report struct {
	Scenario   string           `json:"scenario"`
	Desc       string           `json:"desc"`
	Seed       int64            `json:"seed"`
	Sites      int              `json:"sites"`
	Steps      []Step           `json:"steps"`
	Workload   string           `json:"workload"`
	Schedule   *SchedulePreview `json:"schedule,omitempty"`
	Invariants []Check          `json:"invariants"`
	OK         bool             `json:"ok"`

	// Observed run data — varies run to run, excluded from the JSON.
	Elapsed time.Duration `json:"-"`
	Totals  Totals        `json:"-"`
}

// Run executes sc against a fresh chaos cluster under seed.
func Run(sc Scenario, seed int64) (*Report, error) {
	c, err := NewCluster(ClusterConfig{
		Sites:      sc.Sites,
		Seed:       seed,
		Link:       sc.Link,
		Checkpoint: sc.Checkpoint,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	inj := NewInjector(c)

	prog, err := c.Sites[0].D.Submit(workloads.PrimesApp(),
		workloads.PrimesArgs(sc.Primes, sc.Width, sc.Cost)...)
	if err != nil {
		return nil, fmt.Errorf("fault: submit: %w", err)
	}
	start := time.Now()

	steps := append([]Step(nil), sc.Steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	for _, st := range steps {
		if d := time.Until(start.Add(st.At)); d > 0 {
			time.Sleep(d)
		}
		if err := applyStep(c, inj, st); err != nil {
			return nil, fmt.Errorf("fault: step %s at %v: %w", st.Kind, st.At, err)
		}
	}

	remaining := sc.Deadline - time.Since(start)
	if remaining < time.Second {
		remaining = time.Second
	}
	result, terminated := c.Sites[0].D.WaitResult(prog, remaining)
	inj.ResumeAll()
	killZombies(c)

	rep := &Report{
		Scenario:   sc.Name,
		Desc:       sc.Desc,
		Seed:       seed,
		Sites:      sc.Sites,
		Steps:      jsonSteps(steps),
		Workload:   fmt.Sprintf("primes p=%d width=%d cost=%g", sc.Primes, sc.Width, sc.Cost),
		Invariants: checkInvariants(sc, c, result, terminated),
		Elapsed:    time.Since(start),
		Totals:     c.Net.Totals(),
	}
	if !sc.Link.zero() {
		rep.Schedule = &SchedulePreview{
			Src:       siteAddr(0, 0),
			Dst:       siteAddr(1, 0),
			Decisions: Schedule(sc.Link, seed, siteAddr(0, 0), siteAddr(1, 0), 16),
		}
	}
	rep.OK = true
	for _, ck := range rep.Invariants {
		rep.OK = rep.OK && ck.OK
	}
	return rep, nil
}

// applyStep executes one scripted action.
func applyStep(c *Cluster, inj *Injector, st Step) error {
	switch st.Kind {
	case StepCrash:
		return inj.Crash(st.Site)
	case StepLeave:
		return inj.Leave(st.Site)
	case StepStall:
		return inj.Stall(st.Site, st.Dur)
	case StepRejoin:
		return inj.Rejoin(st.Site)
	case StepPartition:
		for g, members := range st.Groups {
			addrs := make([]string, 0, len(members))
			for _, idx := range members {
				if idx < 0 || idx >= len(c.Sites) {
					return fmt.Errorf("no site %d", idx)
				}
				addrs = append(addrs, c.Sites[idx].Addr)
			}
			c.Net.Partition(g, addrs...)
		}
		return nil
	case StepHeal:
		c.Net.Heal()
		return nil
	default:
		return fmt.Errorf("unknown step kind %q", st.Kind)
	}
}

// jsonSteps fills the JSON-stable millisecond mirrors of the duration
// fields.
//
//sdvm:deterministic
func jsonSteps(steps []Step) []Step {
	out := make([]Step, len(steps))
	for i, st := range steps {
		st.AtMS = st.At.Milliseconds()
		st.DurMS = st.Dur.Milliseconds()
		out[i] = st
	}
	return out
}

// killZombies hard-stops any site the cluster no longer lists — e.g. a
// partitioned minority the majority declared crashed. Leaving it
// running would let a stale roster leak traffic into the healed
// network; the real system's operator would have fenced the machine.
func killZombies(c *Cluster) {
	if !c.Sites[0].Alive {
		return
	}
	roster := make(map[string]bool)
	for _, id := range c.Sites[0].D.CM.SiteIDs() {
		roster[id.String()] = true
	}
	for _, s := range c.Sites {
		if !s.Alive || s.Index == 0 {
			continue
		}
		if roster[s.D.Self().String()] {
			continue
		}
		c.Net.KillSite(s.Addr)
		s.D.Kill()
		s.Alive = false
	}
}
