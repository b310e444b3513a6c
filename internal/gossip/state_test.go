package gossip

import (
	"fmt"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// simConfig uses the default protocol clocks: at 256 sites a given
// row's stats refresh only every handful of rounds, so an aggressive
// suspicion clock would drown the cluster in false accusations.
func simConfig(seed int64) Config {
	return Config{Seed: seed}
}

func siteInfo(id types.SiteID) types.SiteInfo {
	return types.SiteInfo{ID: id, PhysAddr: fmt.Sprintf("sim-%d", id), Speed: 1}
}

// sim drives N pure protocol instances with synchronous synthetic
// routing — no bus, no goroutines, one deterministic seed.
type sim struct {
	states map[types.SiteID]*State
	order  []types.SiteID // stable tick order
}

func newSim(n int) *sim {
	s := &sim{states: make(map[types.SiteID]*State)}
	for i := 1; i <= n; i++ {
		id := types.SiteID(i)
		st := NewState(siteInfo(id), simConfig(int64(i)))
		for j := 1; j <= n; j++ {
			if j != i {
				st.SeedPeer(siteInfo(types.SiteID(j)))
			}
		}
		s.states[id] = st
		s.order = append(s.order, id)
	}
	return s
}

// step runs one round: every live site ticks and its digest is
// delivered synchronously, anti-entropy deltas flowing straight back.
func (s *sim) step() {
	for _, id := range s.order {
		src, ok := s.states[id]
		if !ok {
			continue // crashed
		}
		targets, digest, _ := src.Tick()
		for _, t := range targets {
			dst, ok := s.states[t]
			if !ok {
				continue // message to a dead site is lost
			}
			delta, _ := dst.HandleDigest(digest)
			if delta != nil {
				src.HandleDelta(delta)
			}
		}
	}
}

// crash removes a site without ceremony: it simply stops ticking and
// answering.
func (s *sim) crash(id types.SiteID) { delete(s.states, id) }

// join starts a fresh site knowing only the contact, and tells the
// contact about it — the sign-on handshake in miniature.
func (s *sim) join(id, contact types.SiteID) {
	st := NewState(siteInfo(id), simConfig(int64(id)))
	st.SeedPeer(siteInfo(contact))
	s.states[id] = st
	s.order = append(s.order, id)
	s.states[contact].Announce(siteInfo(id))
}

// converged reports whether every live site's view of site id matches
// the predicate.
func (s *sim) converged(check func(st *State) bool) bool {
	for _, st := range s.states {
		if !check(st) {
			return false
		}
	}
	return true
}

// stepsUntil runs rounds until every live state satisfies check,
// failing the test past limit.
func (s *sim) stepsUntil(t *testing.T, limit int, what string, check func(st *State) bool) int {
	t.Helper()
	for r := 1; r <= limit; r++ {
		s.step()
		if s.converged(check) {
			return r
		}
	}
	t.Fatalf("%s: not converged after %d rounds", what, limit)
	return 0
}

// TestConvergence256 is the scale acceptance test: a 256-site cluster
// disseminates a join and then a crash to every member within a bounded
// number of gossip rounds, with every digest staying within digestMax.
func TestConvergence256(t *testing.T) {
	const n = 256
	s := newSim(n)
	// Warm up: drain the hot flood the all-at-once seeding created, as
	// a real cluster would have long before a join arrives.
	for r := 0; r < 5; r++ {
		s.step()
	}

	// A fresh site joins knowing only site 1.
	joiner := types.SiteID(n + 1)
	s.join(joiner, 1)
	rounds := s.stepsUntil(t, 40, "join dissemination", func(st *State) bool {
		_, ok := st.Lookup(joiner)
		return ok
	})
	t.Logf("join reached all %d sites in %d rounds", n, rounds)

	// The joiner must likewise learn the whole roster, one digest
	// window at a time, once peers start picking it as a target.
	s.stepsUntil(t, 120, "joiner roster fill", func(st *State) bool {
		return st.Size() >= n
	})

	// Site 7 crashes silently. Suspicion ages it out and the tombstone
	// spreads; bounded by the aging-cursor sweep (n/digestMax) plus the
	// two suspicion clocks plus dissemination.
	s.crash(7)
	// The alive→suspect clock scales with the table's refresh lag (see
	// refreshLag); the death clock and the sweep cursor do not.
	lag := (n + 1 + fanout*digestMax - 1) / (fanout * digestMax)
	limit := n/digestMax + suspectAfter*lag + deadAfter + 60
	rounds = s.stepsUntil(t, limit, "crash tombstone", func(st *State) bool {
		e, ok := st.Lookup(7)
		return ok && Status(e.Status).Tombstone()
	})
	t.Logf("crash of site 7 tombstoned everywhere in %d rounds (limit %d)", rounds, limit)
}

// TestDigestBounded pins the O(fanout) property: no digest ever carries
// more than digestMax entries or targets more than fanout peers, even
// from a site that knows hundreds of rows.
func TestDigestBounded(t *testing.T) {
	s := newSim(128)
	for r := 0; r < 30; r++ {
		for _, id := range s.order {
			st := s.states[id]
			targets, digest, _ := st.Tick()
			if len(targets) > 3 {
				t.Fatalf("round %d: %d targets, fanout is 3", r, len(targets))
			}
			if len(digest.Entries) > 16 {
				t.Fatalf("round %d: digest carries %d entries, max 16", r, len(digest.Entries))
			}
			if len(digest.Sites) > len(digest.Entries) {
				t.Fatalf("round %d: %d site infos for %d entries", r, len(digest.Sites), len(digest.Entries))
			}
			for _, tgt := range targets {
				if dst, ok := s.states[tgt]; ok {
					if delta, _ := dst.HandleDigest(digest); delta != nil {
						if len(delta.Entries) > 16 {
							t.Fatalf("delta carries %d entries", len(delta.Entries))
						}
						st.HandleDelta(delta)
					}
				}
			}
		}
	}
}

// TestRefutation pins the SWIM incarnation rule: a falsely suspected
// site that hears its own obituary bumps its incarnation, and the
// refutation wins over the accusation everywhere.
func TestRefutation(t *testing.T) {
	a := NewState(siteInfo(1), simConfig(1))
	b := NewState(siteInfo(2), simConfig(2))
	a.SeedPeer(siteInfo(2))
	b.SeedPeer(siteInfo(1))

	// a accuses b at incarnation 0.
	accusation := &wire.GossipDigest{From: 1, Round: 9, Entries: []wire.GossipEntry{
		{Site: 2, Incarnation: 0, Status: uint8(StatusSuspect), OriginRound: 9},
	}}
	delta, _ := b.HandleDigest(accusation)
	self, _ := b.Lookup(2)
	if Status(self.Status) != StatusAlive || self.Incarnation != 1 {
		t.Fatalf("suspected site did not refute: %+v", self)
	}
	// The refutation flows straight back as an anti-entropy delta...
	if delta == nil {
		t.Fatal("no delta answering a stale accusation")
	}
	a.HandleDelta(delta)
	got, _ := a.Lookup(2)
	if Status(got.Status) != StatusAlive || got.Incarnation != 1 {
		t.Fatalf("accuser did not adopt the refutation: %+v", got)
	}
	// ...and a re-played accusation at the old incarnation loses.
	a.HandleDigest(accusation)
	got, _ = a.Lookup(2)
	if Status(got.Status) != StatusAlive {
		t.Fatalf("stale accusation resurrected suspicion: %+v", got)
	}
}

// TestTombstoneFencing pins that a departed site stays departed: alive
// rows at any incarnation the site actually used cannot overwrite its
// tombstone, only the site itself could (with a higher incarnation).
func TestTombstoneFencing(t *testing.T) {
	a := NewState(siteInfo(1), simConfig(1))
	a.SeedPeer(siteInfo(2))
	a.MarkGone(2, false)

	stale := &wire.GossipDigest{From: 3, Round: 4, Entries: []wire.GossipEntry{
		{Site: 2, Incarnation: 0, Status: uint8(StatusAlive), OriginRound: 99, Load: 0.5},
	}, Sites: []types.SiteInfo{siteInfo(2)}}
	delta, events := a.HandleDigest(stale)
	e, _ := a.Lookup(2)
	if Status(e.Status) != StatusLeft {
		t.Fatalf("stale alive row revived a tombstone: %+v", e)
	}
	for _, ev := range events {
		if ev.Kind == EventJoin {
			t.Fatal("tombstoned site produced a join event")
		}
	}
	// The sender holding the stale row gets corrected by delta.
	if delta == nil || len(delta.Entries) != 1 || Status(delta.Entries[0].Status) != StatusLeft {
		t.Fatalf("no corrective delta for stale alive row: %+v", delta)
	}
}

// TestLeavePropagates pins the sign-off path: Leave bumps the own
// incarnation so the Left tombstone overrules every alive copy already
// in flight, and other sites adopt it with a leave event.
func TestLeavePropagates(t *testing.T) {
	a := NewState(siteInfo(1), simConfig(1))
	b := NewState(siteInfo(2), simConfig(2))
	a.SeedPeer(siteInfo(2))
	b.SeedPeer(siteInfo(1))

	targets, farewell := a.Leave()
	if len(targets) == 0 {
		t.Fatal("leave produced no farewell targets")
	}
	_, events := b.HandleDigest(farewell)
	var left bool
	for _, ev := range events {
		if ev.Kind == EventLeave && ev.Site == 1 && !ev.Crashed {
			left = true
		}
	}
	if !left {
		t.Fatalf("no leave event from farewell digest: %+v", events)
	}
	e, _ := b.Lookup(1)
	if Status(e.Status) != StatusLeft || e.Incarnation == 0 {
		t.Fatalf("farewell row not adopted: %+v", e)
	}
	// The leaver never refutes its own tombstone.
	echo := &wire.GossipDigest{From: 2, Round: 1, Entries: []wire.GossipEntry{e}}
	a.HandleDigest(echo)
	own, _ := a.Lookup(1)
	if Status(own.Status) != StatusLeft {
		t.Fatalf("leaver refuted its own sign-off: %+v", own)
	}
}

// TestStatsDisseminate pins load-vector flow: a queue-depth change on
// one site reaches another through digests alone, carried as a stats
// event for the roster.
func TestStatsDisseminate(t *testing.T) {
	s := newSim(8)
	s.states[3].SetLocalStats(0.75, 42, 2)
	for r := 0; r < 20; r++ {
		s.step()
		e, ok := s.states[6].Lookup(3)
		if ok && e.QueueLen == 42 {
			return
		}
	}
	e, _ := s.states[6].Lookup(3)
	t.Fatalf("site 6 never saw site 3's queue depth: %+v", e)
}

// TestMarkGoneIdempotent pins the re-entrancy contract: the roster's
// OnLeave hook loops back into MarkGone for removals gossip itself
// initiated, which must be a no-op.
func TestMarkGoneIdempotent(t *testing.T) {
	a := NewState(siteInfo(1), simConfig(1))
	a.SeedPeer(siteInfo(2))
	a.MarkGone(2, true)
	before, _ := a.Lookup(2)
	a.MarkGone(2, false) // second removal with a different flavor
	after, _ := a.Lookup(2)
	if before != after {
		t.Fatalf("second MarkGone changed the row: %+v -> %+v", before, after)
	}
	if a.Size() != 2 {
		t.Fatalf("size %d after duplicate MarkGone", a.Size())
	}
}

// TestRumorPushesNewcomer pins the sign-on push: Announce reports a
// row the table never held (and only such a row), and Rumor addresses
// the newcomer's row to every other peer of a small table — never to
// the newcomer itself or this site — without advancing the round.
func TestRumorPushesNewcomer(t *testing.T) {
	a := NewState(siteInfo(1), simConfig(1))
	a.SeedPeer(siteInfo(2))
	a.SeedPeer(siteInfo(3))
	if !a.Announce(siteInfo(4)) {
		t.Fatal("Announce of a new site reported it already held")
	}
	if a.Announce(siteInfo(4)) || a.Announce(siteInfo(2)) {
		t.Fatal("Announce of a held row reported it new")
	}
	targets, d := a.Rumor(4)
	if len(targets) != 2 || targets[0] != 2 || targets[1] != 3 {
		t.Fatalf("rumor targets %v, want [2 3]", targets)
	}
	if a.Round() != 0 || d.Round != 0 {
		t.Fatalf("rumor advanced the round: state %d, digest %d", a.Round(), d.Round)
	}
	if len(d.Entries) != 2 || d.Entries[0].Site != 1 || d.Entries[1].Site != 4 ||
		findInfo(d.Sites, 4) == nil {
		t.Fatalf("rumor digest lacks the newcomer's routable row: %+v", d)
	}
	// A receiver that never heard of the newcomer learns it from the push.
	b := NewState(siteInfo(2), simConfig(2))
	b.SeedPeer(siteInfo(1))
	_, events := b.HandleDigest(d)
	joined := false
	for _, ev := range events {
		joined = joined || (ev.Kind == EventJoin && ev.Site == 4)
	}
	if !joined {
		t.Fatalf("push did not introduce the newcomer: %+v", events)
	}

	// A large table samples fanout distinct peers, still never the
	// newcomer.
	big := newSim(40).states[1]
	big.Announce(siteInfo(41))
	targets, _ = big.Rumor(41)
	seen := map[types.SiteID]bool{}
	for _, id := range targets {
		if id == 1 || id == 41 || seen[id] {
			t.Fatalf("bad rumor target %v in %v", id, targets)
		}
		seen[id] = true
	}
	if len(targets) != fanout {
		t.Fatalf("rumor reached %d peers, want %d", len(targets), fanout)
	}
}
