// The cluster list is filled by the gossip layer, so these tests run
// from outside the package on testnet nodes, which wire internal/gossip
// in exactly as the daemon does (gossip itself imports cluster).
package cluster_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/testnet"
	"repro/internal/transport/inproc"
	"repro/internal/types"
	"repro/internal/wire"
)

// buildCluster bootstraps one site and joins n-1 more, all through the
// bootstrap site as contact.
func buildCluster(t *testing.T, n int) []*testnet.Node {
	return buildClusterVia(t, n, false)
}

// buildClusterVia bootstraps one site and joins n-1 more. Relayed, each
// newcomer signs on through the site that joined just before it, so
// every id after the first is relayed to the bootstrap site.
func buildClusterVia(t *testing.T, n int, relayed bool) []*testnet.Node {
	t.Helper()
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)

	nodes := make([]*testnet.Node, n)
	nodes[0] = testnet.NewNode(t, fab, "site-0", cluster.Config{})
	nodes[0].Bootstrap()
	for i := 1; i < n; i++ {
		nodes[i] = testnet.NewNode(t, fab, fmt.Sprintf("site-%d", i), cluster.Config{})
		contact := "site-0"
		if relayed {
			contact = fmt.Sprintf("site-%d", i-1)
		}
		if err := nodes[i].Join(contact); err != nil {
			t.Fatalf("site %d join: %v", i, err)
		}
	}
	return nodes
}

// contacts names the two ways a newcomer reaches the id counter: asking
// the bootstrap site (the paper's central contact site) directly, or
// signing on through another member, which relays the id request.
var contacts = []struct {
	name    string
	relayed bool
}{
	{"central", false},
	{"relayed", true},
}

func TestBootstrapTakesID1(t *testing.T) {
	nodes := buildCluster(t, 1)
	if got := nodes[0].CM.SelfID(); got != cluster.BootstrapID {
		t.Fatalf("bootstrap id = %v", got)
	}
	if nodes[0].CM.Size() != 1 {
		t.Fatalf("Size = %d", nodes[0].CM.Size())
	}
	if !nodes[0].CM.Self().IsCodeDist {
		t.Error("bootstrap site must be a code distribution site")
	}
}

func TestJoinAssignsUniqueIDs(t *testing.T) {
	for _, via := range contacts {
		t.Run(via.name, func(t *testing.T) {
			nodes := buildClusterVia(t, 5, via.relayed)
			seen := map[types.SiteID]bool{}
			for i, n := range nodes {
				id := n.CM.SelfID()
				if !id.Valid() {
					t.Fatalf("site %d has invalid id", i)
				}
				if seen[id] {
					t.Fatalf("duplicate id %v", id)
				}
				seen[id] = true
			}
		})
	}
}

func TestJoinPropagatesClusterList(t *testing.T) {
	nodes := buildCluster(t, 4)
	// Announcements are asynchronous; every site must eventually know
	// all 4 members.
	for i, n := range nodes {
		n := n
		testnet.WaitFor(t, fmt.Sprintf("site %d full list", i), func() bool {
			return n.CM.Size() == 4
		})
	}
}

func TestJoinViaNonBootstrapSite(t *testing.T) {
	// A sign-on handled by a non-bootstrap site must forward the id
	// allocation to the bootstrap site.
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)
	a := testnet.NewNode(t, fab, "a", cluster.Config{})
	a.Bootstrap()
	b := testnet.NewNode(t, fab, "b", cluster.Config{})
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	c := testnet.NewNode(t, fab, "c", cluster.Config{})
	if err := c.Join("b"); err != nil {
		t.Fatalf("join via non-bootstrap: %v", err)
	}
	ids := map[types.SiteID]bool{a.CM.SelfID(): true, b.CM.SelfID(): true, c.CM.SelfID(): true}
	if len(ids) != 3 {
		t.Fatalf("ids not unique: %v", ids)
	}
}

func TestConcurrentJoins(t *testing.T) {
	for _, via := range contacts {
		t.Run(via.name, func(t *testing.T) {
			fab := inproc.New(inproc.LinkProfile{})
			t.Cleanup(fab.Close)
			boot := testnet.NewNode(t, fab, "boot", cluster.Config{})
			boot.Bootstrap()
			// Relayed, every joiner signs on through the relay, so all ids
			// are IDBlockRequests racing at the bootstrap site.
			relay := testnet.NewNode(t, fab, "relay", cluster.Config{})
			if err := relay.Join("boot"); err != nil {
				t.Fatal(err)
			}
			contact := "boot"
			if via.relayed {
				contact = "relay"
			}

			const n = 12
			joiners := make([]*testnet.Node, n)
			for i := range joiners {
				joiners[i] = testnet.NewNode(t, fab, fmt.Sprintf("j-%d", i), cluster.Config{})
			}
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := range joiners {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = joiners[i].Join(contact)
				}(i)
			}
			wg.Wait()
			seen := map[types.SiteID]bool{boot.CM.SelfID(): true, relay.CM.SelfID(): true}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("join %d: %v", i, err)
				}
				id := joiners[i].CM.SelfID()
				if seen[id] {
					t.Fatalf("duplicate id %v under concurrency", id)
				}
				seen[id] = true
			}
		})
	}
}

func TestSignOffRemovesSite(t *testing.T) {
	nodes := buildCluster(t, 3)
	for _, n := range nodes {
		n := n
		testnet.WaitFor(t, "full list", func() bool { return n.CM.Size() == 3 })
	}
	leaving := nodes[2]
	leavingID := leaving.CM.SelfID()
	leaving.Gossip.Leave()
	for i, n := range nodes[:2] {
		n := n
		testnet.WaitFor(t, fmt.Sprintf("site %d drops leaver", i), func() bool {
			_, ok := n.CM.Lookup(leavingID)
			return !ok
		})
	}
	// Messaging the departed site now fails with ErrSiteLeft.
	_, err := nodes[0].CM.PhysAddr(leavingID)
	if !errors.Is(err, types.ErrSiteLeft) {
		t.Fatalf("PhysAddr after sign-off = %v", err)
	}
}

func TestOnJoinOnLeaveCallbacks(t *testing.T) {
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)
	boot := testnet.NewNode(t, fab, "boot", cluster.Config{})

	var mu sync.Mutex
	joins := 0
	var left types.SiteID
	var crashed bool
	boot.CM.OnJoin(func(types.SiteInfo) { mu.Lock(); joins++; mu.Unlock() })
	boot.CM.OnLeave(func(id types.SiteID, c bool) { mu.Lock(); left, crashed = id, c; mu.Unlock() })
	boot.Bootstrap()

	a := testnet.NewNode(t, fab, "a", cluster.Config{})
	if err := a.Join("boot"); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "join callback", func() bool { mu.Lock(); defer mu.Unlock(); return joins == 1 })

	boot.CM.Remove(a.CM.SelfID(), true)
	mu.Lock()
	if left != a.CM.SelfID() || !crashed {
		t.Fatalf("leave callback got (%v,%v)", left, crashed)
	}
	mu.Unlock()
}

func TestLoadReportsUpdateList(t *testing.T) {
	nodes := buildCluster(t, 2)
	a, b := nodes[0], nodes[1]
	testnet.WaitFor(t, "b in a's list", func() bool { return a.CM.Size() == 2 })

	b.Gossip.Tick(0.9, 12, 1)
	testnet.WaitFor(t, "gossiped statistics applied", func() bool {
		s, ok := a.CM.Lookup(b.CM.SelfID())
		return ok && s.Load > 0.8 && s.QueueLen == 12
	})
}

func TestPickHelpTargetPrefersQueuedWork(t *testing.T) {
	nodes := buildCluster(t, 4)
	a := nodes[0]
	testnet.WaitFor(t, "full list", func() bool { return a.CM.Size() == 4 })

	// Site 3 reports queued work, others are idle.
	busy := nodes[2]
	busy.Gossip.Tick(1.0, 8, 1)
	testnet.WaitFor(t, "stats visible", func() bool {
		s, ok := a.CM.Lookup(busy.CM.SelfID())
		return ok && s.QueueLen == 8
	})

	for i := 0; i < 10; i++ {
		if got := a.CM.PickHelpTarget(nil); got != busy.CM.SelfID() {
			t.Fatalf("PickHelpTarget = %v, want %v", got, busy.CM.SelfID())
		}
	}
}

func TestPickHelpTargetHonorsExclusions(t *testing.T) {
	nodes := buildCluster(t, 3)
	a := nodes[0]
	testnet.WaitFor(t, "full list", func() bool { return a.CM.Size() == 3 })
	excl := map[types.SiteID]bool{nodes[1].CM.SelfID(): true}
	for i := 0; i < 10; i++ {
		got := a.CM.PickHelpTarget(excl)
		if got == nodes[1].CM.SelfID() {
			t.Fatal("excluded site picked")
		}
		if got == types.InvalidSite {
			t.Fatal("no target found")
		}
	}
	// Excluding everyone yields InvalidSite.
	excl[nodes[2].CM.SelfID()] = true
	if got := a.CM.PickHelpTarget(excl); got != types.InvalidSite {
		t.Fatalf("PickHelpTarget with all excluded = %v", got)
	}
}

func TestCodeDistSites(t *testing.T) {
	nodes := buildCluster(t, 3)
	testnet.WaitFor(t, "lists", func() bool { return nodes[2].CM.Size() == 3 })
	// Bootstrap is implicitly code-dist; others learn it via the
	// sign-on snapshot.
	dist := nodes[2].CM.CodeDistSites()
	if len(dist) != 1 || dist[0] != cluster.BootstrapID {
		t.Fatalf("CodeDistSites = %v", dist)
	}
}

func TestPingPong(t *testing.T) {
	nodes := buildCluster(t, 2)
	a, b := nodes[0], nodes[1]
	reply, err := a.Bus.Request(b.CM.SelfID(), types.MgrCluster, types.MgrCluster,
		&wire.Ping{Nonce: 77}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pong, ok := reply.Payload.(*wire.Pong)
	if !ok || pong.Nonce != 77 {
		t.Fatalf("reply = %#v", reply.Payload)
	}
}
