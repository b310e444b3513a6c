// The P-4 membership-at-scale check: gossip sign-on, roster convergence
// and sign-off dissemination at 64–256 in-process sites. DESIGN.md §9
// explains what it locks in; `sdvmbench -exp scalestorm` runs it in CI.
package bench

import (
	"fmt"
	"time"
)

// ScaleStormPoint is one cluster size of the P-4 membership-at-scale
// measurement.
type ScaleStormPoint struct {
	Sites      int
	JoinMS     float64 // wall-clock for the sequential sign-on wave
	ConvergeMS float64 // ...until every site's roster holds every site
	LeaveMS    float64 // ...until one sign-off tombstone reaches all rosters
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
	return pt, nil
}
