package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/msgbus"
	"repro/internal/netmgr"
	"repro/internal/security"
	"repro/internal/transport/inproc"
	"repro/internal/types"
	"repro/internal/wire"
)

// node is a minimal site: network manager + bus + cluster manager.
type node struct {
	net *netmgr.Manager
	bus *msgbus.Bus
	cm  *Manager
}

func (n *node) close() {
	n.bus.Close()
	n.net.Close()
}

// newNode wires one site onto the fabric. The cluster manager doubles as
// the bus's resolver, exactly as in the daemon.
func newNode(t *testing.T, fab *inproc.Fabric, name string, cfg Config) *node {
	t.Helper()
	n := &node{}
	cfg.PhysAddr = name
	var resolver msgbus.Resolver
	// Indirection: the bus needs the resolver at construction, the
	// cluster manager needs the bus. Use a late-bound forwarder.
	fwd := &forwardResolver{}
	resolver = fwd

	n.net = netmgr.New(fab, security.Plaintext{}, func(d []byte) { n.bus.OnDatagram(d) })
	n.bus = msgbus.New(resolver, n.net)
	n.cm = New(n.bus, cfg)
	fwd.m = n.cm
	if _, err := n.net.Listen(name); err != nil {
		t.Fatal(err)
	}
	n.bus.Start()
	t.Cleanup(n.close)
	return n
}

type forwardResolver struct{ m *Manager }

func (f *forwardResolver) PhysAddr(id types.SiteID) (string, error) { return f.m.PhysAddr(id) }
func (f *forwardResolver) SiteIDs() []types.SiteID                  { return f.m.SiteIDs() }

// buildCluster bootstraps one site and joins n-1 more, all through the
// bootstrap site as contact.
func buildCluster(t *testing.T, n int) []*node {
	return buildClusterVia(t, n, false)
}

// buildClusterVia bootstraps one site and joins n-1 more. Relayed, each
// newcomer signs on through the site that joined just before it, so
// every id after the first is relayed to the bootstrap site.
func buildClusterVia(t *testing.T, n int, relayed bool) []*node {
	t.Helper()
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)

	nodes := make([]*node, n)
	nodes[0] = newNode(t, fab, "site-0", Config{})
	nodes[0].cm.Bootstrap()
	for i := 1; i < n; i++ {
		nodes[i] = newNode(t, fab, fmt.Sprintf("site-%d", i), Config{})
		contact := "site-0"
		if relayed {
			contact = fmt.Sprintf("site-%d", i-1)
		}
		if err := nodes[i].cm.Join(contact, 5*time.Second); err != nil {
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

// waitFor polls until cond holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBootstrapTakesID1(t *testing.T) {
	nodes := buildCluster(t, 1)
	if got := nodes[0].cm.SelfID(); got != BootstrapID {
		t.Fatalf("bootstrap id = %v", got)
	}
	if nodes[0].cm.Size() != 1 {
		t.Fatalf("Size = %d", nodes[0].cm.Size())
	}
	if !nodes[0].cm.Self().IsCodeDist {
		t.Error("bootstrap site must be a code distribution site")
	}
}

func TestJoinAssignsUniqueIDs(t *testing.T) {
	for _, via := range contacts {
		t.Run(via.name, func(t *testing.T) {
			nodes := buildClusterVia(t, 5, via.relayed)
			seen := map[types.SiteID]bool{}
			for i, n := range nodes {
				id := n.cm.SelfID()
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
		waitFor(t, fmt.Sprintf("site %d full list", i), func() bool {
			return n.cm.Size() == 4
		})
	}
}

func TestJoinViaNonBootstrapSite(t *testing.T) {
	// A sign-on handled by a non-bootstrap site must forward the id
	// allocation to the bootstrap site.
	nodes := buildCluster(t, 2)
	fabNode := nodes[1]
	waitFor(t, "site-1 knows both", func() bool { return fabNode.cm.Size() == 2 })

	// New site joins via site-1, not the bootstrap.
	fab := fabNode.net // reuse? no — need the fabric. Rebuild instead:
	_ = fab
	// Simpler: join through site-1's address on the same fabric used by
	// buildCluster. We reach it via a fresh node on that fabric.
	// buildCluster's fabric is captured by the nodes' transports, so we
	// recreate the scenario from scratch here.
	fab2 := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab2.Close)
	a := newNode(t, fab2, "a", Config{})
	a.cm.Bootstrap()
	b := newNode(t, fab2, "b", Config{})
	if err := b.cm.Join("a", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c := newNode(t, fab2, "c", Config{})
	if err := c.cm.Join("b", 5*time.Second); err != nil {
		t.Fatalf("join via non-bootstrap: %v", err)
	}
	ids := map[types.SiteID]bool{a.cm.SelfID(): true, b.cm.SelfID(): true, c.cm.SelfID(): true}
	if len(ids) != 3 {
		t.Fatalf("ids not unique: %v", ids)
	}
}

func TestConcurrentJoins(t *testing.T) {
	for _, via := range contacts {
		t.Run(via.name, func(t *testing.T) {
			fab := inproc.New(inproc.LinkProfile{})
			t.Cleanup(fab.Close)
			boot := newNode(t, fab, "boot", Config{})
			boot.cm.Bootstrap()
			// Relayed, every joiner signs on through the relay, so all ids
			// are IDBlockRequests racing at the bootstrap site.
			relay := newNode(t, fab, "relay", Config{})
			if err := relay.cm.Join("boot", 5*time.Second); err != nil {
				t.Fatal(err)
			}
			contact := "boot"
			if via.relayed {
				contact = "relay"
			}

			const n = 12
			joiners := make([]*node, n)
			for i := range joiners {
				joiners[i] = newNode(t, fab, fmt.Sprintf("j-%d", i), Config{})
			}
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := range joiners {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = joiners[i].cm.Join(contact, 10*time.Second)
				}(i)
			}
			wg.Wait()
			seen := map[types.SiteID]bool{boot.cm.SelfID(): true, relay.cm.SelfID(): true}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("join %d: %v", i, err)
				}
				id := joiners[i].cm.SelfID()
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
		waitFor(t, "full list", func() bool { return n.cm.Size() == 3 })
	}
	leaving := nodes[2]
	leavingID := leaving.cm.SelfID()
	leaving.cm.AnnounceSignOff()
	for i, n := range nodes[:2] {
		n := n
		waitFor(t, fmt.Sprintf("site %d drops leaver", i), func() bool {
			_, ok := n.cm.Lookup(leavingID)
			return !ok
		})
	}
	// Messaging the departed site now fails with ErrSiteLeft.
	_, err := nodes[0].cm.PhysAddr(leavingID)
	if !errors.Is(err, types.ErrSiteLeft) {
		t.Fatalf("PhysAddr after sign-off = %v", err)
	}
}

func TestOnJoinOnLeaveCallbacks(t *testing.T) {
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)
	boot := newNode(t, fab, "boot", Config{})

	var mu sync.Mutex
	joins := 0
	var left types.SiteID
	var crashed bool
	boot.cm.OnJoin(func(types.SiteInfo) { mu.Lock(); joins++; mu.Unlock() })
	boot.cm.OnLeave(func(id types.SiteID, c bool) { mu.Lock(); left, crashed = id, c; mu.Unlock() })
	boot.cm.Bootstrap()

	a := newNode(t, fab, "a", Config{})
	if err := a.cm.Join("boot", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "join callback", func() bool { mu.Lock(); defer mu.Unlock(); return joins == 1 })

	boot.cm.Remove(a.cm.SelfID(), true)
	mu.Lock()
	if left != a.cm.SelfID() || !crashed {
		t.Fatalf("leave callback got (%v,%v)", left, crashed)
	}
	mu.Unlock()
}

func TestLoadReportsUpdateList(t *testing.T) {
	nodes := buildCluster(t, 2)
	a, b := nodes[0], nodes[1]
	waitFor(t, "b in a's list", func() bool { return a.cm.Size() == 2 })

	b.cm.UpdateSelf(0.9, 12, 1)
	b.cm.BroadcastLoad()
	waitFor(t, "load report applied", func() bool {
		s, ok := a.cm.Lookup(b.cm.SelfID())
		return ok && s.Load > 0.8 && s.QueueLen == 12
	})
}

func TestPickHelpTargetPrefersQueuedWork(t *testing.T) {
	nodes := buildCluster(t, 4)
	a := nodes[0]
	waitFor(t, "full list", func() bool { return a.cm.Size() == 4 })

	// Site 3 reports queued work, others are idle.
	busy := nodes[2]
	busy.cm.UpdateSelf(1.0, 8, 1)
	busy.cm.BroadcastLoad()
	waitFor(t, "stats visible", func() bool {
		s, ok := a.cm.Lookup(busy.cm.SelfID())
		return ok && s.QueueLen == 8
	})

	for i := 0; i < 10; i++ {
		if got := a.cm.PickHelpTarget(nil); got != busy.cm.SelfID() {
			t.Fatalf("PickHelpTarget = %v, want %v", got, busy.cm.SelfID())
		}
	}
}

func TestPickHelpTargetHonorsExclusions(t *testing.T) {
	nodes := buildCluster(t, 3)
	a := nodes[0]
	waitFor(t, "full list", func() bool { return a.cm.Size() == 3 })
	excl := map[types.SiteID]bool{nodes[1].cm.SelfID(): true}
	for i := 0; i < 10; i++ {
		got := a.cm.PickHelpTarget(excl)
		if got == nodes[1].cm.SelfID() {
			t.Fatal("excluded site picked")
		}
		if got == types.InvalidSite {
			t.Fatal("no target found")
		}
	}
	// Excluding everyone yields InvalidSite.
	excl[nodes[2].cm.SelfID()] = true
	if got := a.cm.PickHelpTarget(excl); got != types.InvalidSite {
		t.Fatalf("PickHelpTarget with all excluded = %v", got)
	}
}

func TestCodeDistSites(t *testing.T) {
	nodes := buildCluster(t, 3)
	waitFor(t, "lists", func() bool { return nodes[2].cm.Size() == 3 })
	// Bootstrap is implicitly code-dist; others learn it via the
	// sign-on snapshot.
	dist := nodes[2].cm.CodeDistSites()
	if len(dist) != 1 || dist[0] != BootstrapID {
		t.Fatalf("CodeDistSites = %v", dist)
	}
}

func TestPingPong(t *testing.T) {
	nodes := buildCluster(t, 2)
	a, b := nodes[0], nodes[1]
	reply, err := a.bus.Request(b.cm.SelfID(), types.MgrCluster, types.MgrCluster,
		&wire.Ping{Nonce: 77}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pong, ok := reply.Payload.(*wire.Pong)
	if !ok || pong.Nonce != 77 {
		t.Fatalf("reply = %#v", reply.Payload)
	}
}
