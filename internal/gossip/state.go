// Protocol core: a pure, deterministic state machine over membership
// rows. All I/O (bus sends, cluster-roster side effects) lives in the
// Manager; the State only transforms rows and reports what changed, so
// the 256-site convergence tests can drive hundreds of instances in a
// single goroutine with no network at all.
package gossip

import (
	"math/rand"

	"repro/internal/types"
	"repro/internal/wire"
)

// Status is a row's liveness verdict. The order encodes merge
// precedence at equal incarnation: a tombstone overrules suspicion
// overrules liveness, and nothing short of a higher incarnation (which
// only the subject site itself can issue) revives a tombstoned row.
type Status uint8

const (
	StatusAlive   Status = iota
	StatusSuspect        // silent too long; the subject can refute
	StatusDead           // crash tombstone
	StatusLeft           // controlled sign-off tombstone
)

func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	case StatusLeft:
		return "left"
	}
	return "status(?)"
}

// Tombstone reports whether s marks a permanently departed site.
func (s Status) Tombstone() bool { return s == StatusDead || s == StatusLeft }

// The protocol clocks are tuned for a 50–100ms tick: suspicion after
// ~1.5s of silence, a crash tombstone ~3s later — deliberately lazier
// than the checkpoint heartbeat (600ms), which stays the primary crash
// detector; gossip suspicion is the backstop and the disseminator.
const (
	// fanout is how many peers receive this site's digest per tick.
	fanout = 3
	// digestMax bounds the rows one digest carries: the own row, hot
	// (recently changed) rows, and a rotating window over the rest.
	digestMax = 16
	// suspectAfter is the rounds of silence before an alive row turns
	// suspect, at a table small enough for every digest to cover it.
	// Larger tables scale this by the refresh lag — see refreshLag.
	suspectAfter = 30
	// deadAfter is the additional rounds of silence before a suspect
	// row becomes a crash tombstone.
	deadAfter = 60
	// tombstoneTTL is how many rounds a tombstone keeps riding digests
	// after its last change. The row itself is kept forever (it fences
	// stale revivals); only its airtime is bounded.
	tombstoneTTL = 64
)

// Config parameterizes the protocol.
type Config struct {
	// Seed drives peer selection; 0 falls back to 1.
	Seed int64
}

// hotRides is how many outgoing digests a changed row rides before it
// falls back to the rotating window. Rides, not rounds: during a flood
// (a churn storm, the seeding wave after a mass sign-on) more rows turn
// hot than one digest can carry, and a round-based expiry would drop
// the backlog unsent. A ride budget keeps every rumor queued until it
// has actually been transmitted, which is what the epidemic's O(log N)
// spread assumes.
const hotRides = 3

// EventKind tags a membership side effect a merge or tick decided.
type EventKind uint8

const (
	// EventJoin introduces a site (full cluster-list entry attached).
	EventJoin EventKind = iota
	// EventLeave removes a site (tombstone adopted or aged into).
	EventLeave
	// EventStats refreshes a known site's load vector.
	EventStats
)

// Event is one membership side effect for the caller to apply to the
// cluster roster after releasing the protocol lock (the roster fires
// user callbacks that may call back into gossip).
type Event struct {
	Kind     EventKind
	Site     types.SiteID
	Info     types.SiteInfo // EventJoin only
	Crashed  bool           // EventLeave: crash vs sign-off
	Load     float64        // EventStats
	QueueLen int32          // EventStats
	Programs int32          // EventStats
}

// row is the per-site protocol state.
type row struct {
	entry      wire.GossipEntry
	info       types.SiteInfo // zero ID = no routing info yet
	lastHeard  uint32         // local round the row last advanced
	changed    uint32         // local round of the last membership change
	includedAt uint32         // local round the row last rode a digest (dedup)
	hotLeft    int            // digest rides left before going cold
	queued     bool           // already on the hot queue
}

// State is one site's protocol instance. It is not safe for concurrent
// use; the Manager serializes access, and the convergence tests drive
// it single-threaded.
type State struct {
	self types.SiteID
	rng  *rand.Rand

	round uint32
	left  bool // Leave() was called; stop refuting our own tombstone

	rows      map[types.SiteID]*row
	ids       []types.SiteID // sorted; every row, tombstones included
	cursor    int            // rotating digest window position
	ageCursor int            // rotating suspicion window position
	hot       []types.SiteID // FIFO of rows with digest rides left
}

// NewState builds a protocol instance for the given site. selfInfo is
// this site's own cluster-list entry (the ID must be set).
func NewState(selfInfo types.SiteInfo, cfg Config) *State {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := &State{
		self: selfInfo.ID,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		rows: make(map[types.SiteID]*row),
	}
	s.insert(&row{
		entry: wire.GossipEntry{Site: selfInfo.ID, Status: uint8(StatusAlive)},
		info:  selfInfo,
	})
	return s
}

// Round returns the local round counter.
func (s *State) Round() uint32 { return s.round }

// Size returns the number of rows, tombstones included.
func (s *State) Size() int { return len(s.ids) }

// Lookup returns the current entry for id.
func (s *State) Lookup(id types.SiteID) (wire.GossipEntry, bool) {
	r, ok := s.rows[id]
	if !ok {
		return wire.GossipEntry{}, false
	}
	return r.entry, true
}

// insert adds a new row keeping ids sorted (binary insertion; merge
// paths are not size-critical, digest paths never sort).
func (s *State) insert(r *row) {
	id := r.entry.Site
	s.rows[id] = r
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.ids = append(s.ids, 0)
	copy(s.ids[lo+1:], s.ids[lo:])
	s.ids[lo] = id
}

// markHot records a membership change, granting the row hotRides
// priority slots in upcoming digests. Re-marking a queued row refreshes
// its budget without duplicating its queue entry.
func (s *State) markHot(r *row) {
	r.changed = s.round
	r.lastHeard = s.round
	r.hotLeft = hotRides
	if !r.queued {
		r.queued = true
		s.hot = append(s.hot, r.entry.Site)
	}
}

// SeedPeer installs an alive row for a site learned out of band (the
// sign-on snapshot, or the roster's OnJoin hook). Seeded rows start
// cold: a snapshot is information its source already disseminated, and
// hot-marking a 256-row snapshot would bury genuine rumors behind a
// flood of redundant rides. The rumor path proper — mergeEntry
// inserting a site this table had never heard of — stays hot.
// Idempotent: an existing row only gains missing routing info.
func (s *State) SeedPeer(info types.SiteInfo) {
	if !info.ID.Valid() || info.ID == s.self {
		return
	}
	if r, ok := s.rows[info.ID]; ok {
		if !r.info.ID.Valid() {
			r.info = info
		}
		return
	}
	r := &row{
		entry: wire.GossipEntry{
			Site:     info.ID,
			Status:   uint8(StatusAlive),
			Load:     info.Load,
			QueueLen: info.QueueLen,
			Programs: info.Programs,
		},
		info:      info,
		lastHeard: s.round,
		changed:   s.round,
	}
	s.insert(r)
}

// Announce installs a peer like SeedPeer but marks the row hot: the
// sign-on contact may be the only site that knows a newcomer exists —
// a joiner's own digests spread slowly right after sign-on, and a thin
// client session may never gossip at all — so the newcomer's existence
// is a rumor this site must spread, not old news. Reports whether the
// table had never held a row for the site: the caller then pushes the
// rumor at once (Rumor).
func (s *State) Announce(info types.SiteInfo) bool {
	if !info.ID.Valid() || info.ID == s.self {
		return false
	}
	_, held := s.rows[info.ID]
	s.SeedPeer(info)
	r := s.rows[info.ID]
	if Status(r.entry.Status).Tombstone() {
		return false
	}
	s.markHot(r)
	return !held
}

// MarkGone tombstones a row on local authority — the checkpoint
// heartbeat of a site that probes every peer declared a crash.
// Idempotent; a no-op for rows already tombstoned.
func (s *State) MarkGone(id types.SiteID, crashed bool) {
	if id == s.self {
		return
	}
	st := StatusLeft
	if crashed {
		st = StatusDead
	}
	r, ok := s.rows[id]
	if !ok {
		r = &row{entry: wire.GossipEntry{Site: id, Status: uint8(st)}}
		s.insert(r)
		s.markHot(r)
		return
	}
	if Status(r.entry.Status).Tombstone() {
		return
	}
	r.entry.Status = uint8(st)
	s.markHot(r)
}

// Accuse marks a live row suspect on external evidence — a failed
// heartbeat probe. The accusation spreads as a hot row; a falsely
// accused subject refutes it with a higher incarnation, a dead one
// ages to a tombstone after deadAfter rounds. A no-op for rows already
// suspect or tombstoned, so repeated probe failures cannot keep
// resetting the death clock.
func (s *State) Accuse(id types.SiteID) {
	if id == s.self {
		return
	}
	r, ok := s.rows[id]
	if !ok || Status(r.entry.Status) != StatusAlive {
		return
	}
	r.entry.Status = uint8(StatusSuspect)
	s.markHot(r)
}

// SetLocalStats refreshes the load vector of this site's own row; the
// next Tick stamps and disseminates it.
func (s *State) SetLocalStats(load float64, queueLen, programs int32) {
	r := s.rows[s.self]
	r.entry.Load = load
	r.entry.QueueLen = queueLen
	r.entry.Programs = programs
}

// Leave marks this site's own row as a sign-off tombstone (with a
// bumped incarnation, so it overrules every alive copy in flight) and
// returns the farewell burst: the digest and the peers it goes to.
func (s *State) Leave() ([]types.SiteID, *wire.GossipDigest) {
	s.round++
	r := s.rows[s.self]
	r.entry.Incarnation++
	r.entry.Status = uint8(StatusLeft)
	r.entry.OriginRound = s.round
	s.markHot(r)
	s.left = true
	return s.pickPeers(fanout, types.InvalidSite), s.buildDigest()
}

// Tick advances one protocol round: refresh the own row, age the
// current window, and produce this round's digest and its targets. The
// returned events are tombstones aging decided (apply to the roster
// outside the lock). Targets is empty when no routable peer is known.
//
//sdvm:deterministic
func (s *State) Tick() (targets []types.SiteID, digest *wire.GossipDigest, events []Event) {
	s.round++
	self := s.rows[s.self]
	self.entry.OriginRound = s.round
	self.lastHeard = s.round

	events = s.age(events)
	return s.pickPeers(fanout, types.InvalidSite), s.buildDigest(), events
}

// refreshLag is the expected number of rounds between fresher copies
// of any given row reaching this site: a site receives about
// fanout·digestMax row-copies per round, spread across the whole
// table. The suspicion clock scales by this factor so the silence
// budget stays a constant number of expected refreshes at any cluster
// size — with a fixed clock, a 256-site table's ~N/(fanout·digestMax)
// refresh interval turns ordinary gossip jitter into a steady drizzle
// of false accusations.
//
//sdvm:deterministic
func (s *State) refreshLag() uint32 {
	per := fanout * digestMax
	lag := (len(s.ids) + per - 1) / per
	if lag < 1 {
		lag = 1
	}
	return uint32(lag)
}

// age applies the suspicion clock to a rotating window of rows —
// bounded work per tick; its own cursor (independent of the digest
// window, which stalls when hot rows fill the digest) sweeps the whole
// table every len(ids)/digestMax ticks, which only stretches detection
// by that many rounds. Alive→suspect scales with refreshLag;
// suspect→dead stays at deadAfter, because a refutation
// travels the hot path (O(log N) rounds), not the rotating window.
//
//sdvm:deterministic
func (s *State) age(events []Event) []Event {
	if len(s.ids) == 0 {
		return events
	}
	n := digestMax
	if n > len(s.ids) {
		n = len(s.ids)
	}
	suspectAfter := suspectAfter * s.refreshLag()
	for i := 0; i < n; i++ {
		id := s.ids[s.ageCursor%len(s.ids)]
		s.ageCursor = (s.ageCursor + 1) % len(s.ids)
		r := s.rows[id]
		if id == s.self || Status(r.entry.Status).Tombstone() {
			continue
		}
		switch {
		case Status(r.entry.Status) == StatusAlive && s.round-r.lastHeard > suspectAfter:
			r.entry.Status = uint8(StatusSuspect)
			s.markHot(r) // stamps changed: the suspicion round starts the death clock
		case Status(r.entry.Status) == StatusSuspect && s.round-r.changed > deadAfter:
			r.entry.Status = uint8(StatusDead)
			s.markHot(r)
			events = append(events, Event{Kind: EventLeave, Site: id, Crashed: true})
		}
	}
	return events
}

// buildDigest assembles this round's bounded digest: own row first,
// then hot rows, then the rotating window. Every non-tombstone row
// travels with its cluster-list entry so receivers can route to sites
// they just learned.
//
//sdvm:deterministic
func (s *State) buildDigest() *wire.GossipDigest {
	d := &wire.GossipDigest{
		From:    s.self,
		Round:   s.round,
		Entries: make([]wire.GossipEntry, 0, digestMax),
		Sites:   make([]types.SiteInfo, 0, digestMax),
	}
	s.include(d, s.rows[s.self])

	// Hot rows: serve the FIFO front, capped below digestMax so a burst
	// of changes (a churn storm, the seeding flood right after a mass
	// sign-on) can never starve the rotation window — the window is
	// what guarantees every row eventually rides. Served rows with
	// budget left rotate to the back; unserved backlog keeps its place,
	// so no rumor is ever dropped unsent, only delayed.
	hotCap := digestMax - digestMax/4
	served := 0
	kept := s.hot[:0]
	var again []types.SiteID
	for _, id := range s.hot {
		r, ok := s.rows[id]
		if !ok || r.hotLeft <= 0 {
			if ok {
				r.queued = false
			}
			continue
		}
		if served < hotCap {
			s.include(d, r)
			r.hotLeft--
			served++
			if r.hotLeft > 0 {
				again = append(again, id)
			} else {
				r.queued = false
			}
			continue
		}
		kept = append(kept, id)
	}
	s.hot = append(kept, again...)

	// Rotating window over everything else.
	if len(s.ids) > 0 {
		steps := len(s.ids)
		for i := 0; i < steps && len(d.Entries) < digestMax; i++ {
			r := s.rows[s.ids[s.cursor%len(s.ids)]]
			s.cursor = (s.cursor + 1) % len(s.ids)
			if Status(r.entry.Status).Tombstone() && s.round-r.changed > tombstoneTTL {
				continue // fenced forever locally, but off the air
			}
			s.include(d, r)
		}
	}
	return d
}

// SelfDigest builds a one-entry digest carrying only this site's row
// and routing info — an introduction, pushed ahead of a request to a
// peer that may not have heard of this site yet. It advances no round,
// consumes no ride budget, and leaves the per-round dedup untouched.
//
//sdvm:deterministic
func (s *State) SelfDigest() *wire.GossipDigest {
	r := s.rows[s.self]
	d := &wire.GossipDigest{
		From:    s.self,
		Round:   s.round,
		Entries: []wire.GossipEntry{r.entry},
	}
	if r.info.ID.Valid() {
		d.Sites = []types.SiteInfo{r.info}
	}
	return d
}

// Rumor builds the immediate push for a site this table just learned
// of (Announce reported it new): a digest carrying this site's row and
// the newcomer's, bound for fanout peers other than the newcomer, which
// already holds the sign-on snapshot. Like SelfDigest it advances no
// round, runs no aging, consumes no ride budget and leaves the
// per-round dedup untouched; the row stays hot for the regular rounds.
//
//sdvm:deterministic
func (s *State) Rumor(id types.SiteID) ([]types.SiteID, *wire.GossipDigest) {
	d := s.SelfDigest()
	if r, ok := s.rows[id]; ok {
		d.Entries = append(d.Entries, r.entry)
		if r.info.ID.Valid() {
			d.Sites = append(d.Sites, r.info)
		}
	}
	return s.pickPeers(fanout, id), d
}

// include appends one row (and its routing info, if any) to d unless it
// already rode this round's digest.
//
//sdvm:deterministic
func (s *State) include(d *wire.GossipDigest, r *row) {
	if r.includedAt == s.round {
		return
	}
	r.includedAt = s.round
	d.Entries = append(d.Entries, r.entry)
	if r.info.ID.Valid() && !Status(r.entry.Status).Tombstone() {
		d.Sites = append(d.Sites, r.info)
	}
}

// pickPeers samples up to n distinct routable, non-tombstone peers
// other than skip uniformly from the row table. O(n) probes, never a
// roster sweep. A table of at most n candidates is taken whole instead
// of sampled, so a small cluster reaches every peer every time.
//
//sdvm:deterministic
func (s *State) pickPeers(n int, skip types.SiteID) []types.SiteID {
	if len(s.ids) <= 1 || n <= 0 {
		return nil
	}
	out := make([]types.SiteID, 0, n)
	candidates := len(s.ids) - 1 // every row but our own
	if _, ok := s.rows[skip]; ok {
		candidates--
	}
	if candidates <= n {
		for _, id := range s.ids {
			if s.target(id, skip) {
				out = append(out, id)
			}
		}
		return out
	}
	attempts := 4*n + 4
	for i := 0; i < attempts && len(out) < n; i++ {
		id := s.ids[s.rng.Intn(len(s.ids))]
		if !s.target(id, skip) {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

// target reports whether id may receive a digest: a routable,
// non-tombstone peer other than this site and skip.
func (s *State) target(id, skip types.SiteID) bool {
	r := s.rows[id]
	return id != s.self && id != skip &&
		!Status(r.entry.Status).Tombstone() && r.info.ID.Valid()
}

// fresher reports whether candidate (inc, st, originRound) strictly
// supersedes the current row state. Higher incarnation always wins;
// at equal incarnation a worse status wins; at equal status a higher
// origin round carries fresher statistics.
func fresher(cur wire.GossipEntry, inc uint32, st Status, origin uint32) bool {
	if inc != cur.Incarnation {
		return inc > cur.Incarnation
	}
	if st != Status(cur.Status) {
		return st > Status(cur.Status)
	}
	return origin > cur.OriginRound
}

// findInfo returns the cluster-list entry for id carried by a digest or
// delta, if any (linear scan; both lists are digest-bounded).
func findInfo(sites []types.SiteInfo, id types.SiteID) *types.SiteInfo {
	for i := range sites {
		if sites[i].ID == id {
			return &sites[i]
		}
	}
	return nil
}

// HandleDigest merges an incoming digest and returns the anti-entropy
// delta (rows we know strictly fresher state for; nil when none) plus
// the membership events the merge decided.
func (s *State) HandleDigest(d *wire.GossipDigest) (*wire.GossipDelta, []Event) {
	var delta *wire.GossipDelta
	var events []Event
	answer := func(r *row) {
		if delta == nil {
			delta = &wire.GossipDelta{From: s.self}
		}
		delta.Entries = append(delta.Entries, r.entry)
		if r.info.ID.Valid() && !Status(r.entry.Status).Tombstone() {
			delta.Sites = append(delta.Sites, r.info)
		}
	}
	for i := range d.Entries {
		e := &d.Entries[i]
		if e.Site == s.self {
			// A rumor about us: merge refutes it (incarnation bump) if
			// it claims anything short of alive. When the rumor got our
			// status or incarnation wrong, push the truth straight back
			// so the accuser corrects without waiting for the epidemic.
			events = s.mergeEntry(*e, nil, events)
			cur := s.rows[s.self]
			if e.Incarnation != cur.entry.Incarnation || Status(e.Status) != Status(cur.entry.Status) {
				answer(cur)
			}
			continue
		}
		if cur, ok := s.rows[e.Site]; ok &&
			fresher(*e, cur.entry.Incarnation, Status(cur.entry.Status), cur.entry.OriginRound) {
			// We are strictly fresher: answer with our version so the
			// sender converges without waiting for the epidemic.
			answer(cur)
			continue
		}
		events = s.mergeEntry(*e, findInfo(d.Sites, e.Site), events)
	}
	return delta, events
}

// HandleDelta merges an anti-entropy reply. Deltas are never answered.
func (s *State) HandleDelta(d *wire.GossipDelta) []Event {
	var events []Event
	for i := range d.Entries {
		events = s.mergeEntry(d.Entries[i], findInfo(d.Sites, d.Entries[i].Site), events)
	}
	return events
}

// mergeEntry applies one remote row under the SWIM ordering rules.
func (s *State) mergeEntry(e wire.GossipEntry, info *types.SiteInfo, events []Event) []Event {
	if !e.Site.Valid() {
		return events
	}
	if e.Site == s.self {
		// Somebody is talking about us. Refute anything short of alive
		// with a higher incarnation — unless we initiated the sign-off
		// ourselves, in which case the tombstone is the truth.
		self := s.rows[s.self]
		if !s.left && Status(e.Status) != StatusAlive && e.Incarnation >= self.entry.Incarnation {
			self.entry.Incarnation = e.Incarnation + 1
			self.entry.Status = uint8(StatusAlive)
			s.markHot(self)
		}
		return events
	}

	r, ok := s.rows[e.Site]
	if !ok {
		r = &row{entry: e}
		if info != nil {
			r.info = *info
		}
		s.insert(r)
		s.markHot(r)
		if Status(e.Status).Tombstone() {
			return append(events, Event{Kind: EventLeave, Site: e.Site, Crashed: Status(e.Status) == StatusDead})
		}
		if info != nil {
			return append(events, Event{Kind: EventJoin, Site: e.Site, Info: *info})
		}
		return events
	}

	if info != nil && !r.info.ID.Valid() {
		r.info = *info
		if !Status(r.entry.Status).Tombstone() {
			events = append(events, Event{Kind: EventJoin, Site: e.Site, Info: *info})
		}
	}
	if !fresher(r.entry, e.Incarnation, Status(e.Status), e.OriginRound) {
		return events
	}

	wasTombstone := Status(r.entry.Status).Tombstone()
	membership := e.Incarnation != r.entry.Incarnation || e.Status != r.entry.Status
	r.entry = e
	r.lastHeard = s.round
	if membership {
		s.markHot(r)
	}
	switch {
	case Status(e.Status).Tombstone() && !wasTombstone:
		events = append(events, Event{Kind: EventLeave, Site: e.Site, Crashed: Status(e.Status) == StatusDead})
	case !Status(e.Status).Tombstone():
		if wasTombstone {
			// A site only ever revives itself (higher incarnation);
			// reintroduce it to the roster if we can route to it.
			if r.info.ID.Valid() {
				events = append(events, Event{Kind: EventJoin, Site: e.Site, Info: r.info})
			}
		} else {
			events = append(events, Event{
				Kind: EventStats, Site: e.Site,
				Load: e.Load, QueueLen: e.QueueLen, Programs: e.Programs,
			})
		}
	}
	return events
}
