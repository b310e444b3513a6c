// Package testnet assembles minimal multi-site SDVM stacks (virtual
// network + network manager + message bus + cluster manager + gossip)
// for the manager test suites. It is the shared scaffolding those tests hang
// their manager-under-test onto.
//
// It is test-only: no production package imports it. Nine manager test
// suites (accounting, checkpoint, cluster, code, exec, iomgr, memory,
// program, sched) build their clusters through it, where each would
// otherwise carry a private copy of the same wiring that drifts as the
// stack changes. That is why it is kept although nothing ships it.
package testnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gossip"
	"repro/internal/msgbus"
	"repro/internal/netmgr"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/types"
)

// Node is one wired site without execution-layer managers. Gossip
// carries membership as in a daemon, but nothing ticks it: the sign-on
// push is what spreads a newcomer, and a test that needs a round calls
// Gossip.Tick itself.
type Node struct {
	Name   string
	Net    *netmgr.Manager
	Bus    *msgbus.Bus
	CM     *cluster.Manager
	Gossip *gossip.Manager
}

// Close tears the node down.
func (n *Node) Close() {
	n.Bus.Close()
	n.Net.Close()
}

type forwardResolver struct{ m *cluster.Manager }

func (f *forwardResolver) PhysAddr(id types.SiteID) (string, error) { return f.m.PhysAddr(id) }
func (f *forwardResolver) SiteIDs() []types.SiteID                  { return f.m.SiteIDs() }

// Bootstrap starts a new cluster at n.
func (n *Node) Bootstrap() {
	n.CM.Bootstrap()
	n.Gossip.Start()
}

// Join signs n on through the site listening at contact.
func (n *Node) Join(contact string) error {
	if err := n.CM.Join(contact, 10*time.Second); err != nil {
		return err
	}
	n.Gossip.Start()
	return nil
}

// NewNode wires a single site onto net — usually an *inproc.Fabric, but
// any transport.Network works (the chaos suite passes a fault-injecting
// wrapper). The bus is started; the caller attaches its
// manager-under-test, then calls Bootstrap or Join.
func NewNode(t testing.TB, net transport.Network, name string, cfg cluster.Config) *Node {
	t.Helper()
	n := &Node{Name: name}
	cfg.PhysAddr = name
	fwd := &forwardResolver{}
	n.Net = netmgr.New(net, security.Plaintext{}, func(d []byte) { n.Bus.OnDatagram(d) })
	n.Bus = msgbus.New(fwd, n.Net)
	n.CM = cluster.New(n.Bus, cfg)
	fwd.m = n.CM
	n.Gossip = gossip.New(n.Bus, n.CM, gossip.Config{})
	if _, err := n.Net.Listen(name); err != nil {
		t.Fatal(err)
	}
	n.Bus.Start()
	t.Cleanup(n.Close)
	return n
}

// NewCluster builds a fabric with n signed-on sites; nodes[0] is the
// bootstrap. attach, if non-nil, runs on each node before it signs on —
// this is where tests register their manager-under-test so it can observe
// every message from the first sign-on onwards.
func NewCluster(t testing.TB, n int, attach func(i int, node *Node)) []*Node {
	t.Helper()
	fab := inproc.New(inproc.LinkProfile{})
	t.Cleanup(fab.Close)

	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewNode(t, fab, fmt.Sprintf("site-%d", i), cluster.Config{})
		if attach != nil {
			attach(i, nodes[i])
		}
		if i == 0 {
			nodes[0].Bootstrap()
		} else if err := nodes[i].Join("site-0"); err != nil {
			t.Fatalf("site %d join: %v", i, err)
		}
	}
	// Wait until every site knows every other (the pushes are async).
	WaitFor(t, "cluster lists complete", func() bool {
		for _, nd := range nodes {
			if nd.CM.Size() != n {
				return false
			}
		}
		return true
	})
	return nodes
}

// WaitFor polls cond until it holds or a 10s deadline expires.
func WaitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	if !Poll(10*time.Second, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// Poll polls cond every 2ms until it holds (true) or timeout expires
// (false). Exported for non-test harnesses (the chaos runner) that need
// the same settle-wait without a testing.TB.
func Poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}
