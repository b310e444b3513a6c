package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// Logical site ids come from one place (paper §4, cluster manager): the
// bootstrap site is the central contact site that is "always asked for
// new ids". It owns a counter; a member that signs a newcomer on through
// itself asks the bootstrap site for the id with an IDBlockRequest. The
// paper's other two concepts — id servers holding contingents, and
// modulo emission from each server's own id — were measured against this
// one (EXPERIMENTS.md A-4) and are not kept.

// idCounter is the bootstrap site's id space: every id above the ones
// already handed out.
type idCounter struct {
	mu   sync.Mutex
	next uint32
}

// grant carves count consecutive ids off the counter and returns the
// first.
func (a *idCounter) grant(count uint32) (types.SiteID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	first := a.next
	a.next += count
	if a.next < first { // wrapped
		a.next = first
		return types.InvalidSite, types.ErrIDExhausted
	}
	return types.SiteID(first), nil
}

// requestID asks the bootstrap site for one fresh id.
func (m *Manager) requestID() (types.SiteID, error) {
	reply, err := m.bus.Request(BootstrapID, types.MgrCluster, types.MgrCluster,
		&wire.IDBlockRequest{Want: 1}, 10*time.Second)
	if err != nil {
		return types.InvalidSite, fmt.Errorf("cluster: id request: %w", err)
	}
	grant, ok := reply.Payload.(*wire.IDBlockReply)
	if !ok {
		return types.InvalidSite, fmt.Errorf("%w: unexpected id reply %T", types.ErrBadMessage, reply.Payload)
	}
	if grant.Count < 1 {
		return types.InvalidSite, types.ErrIDExhausted
	}
	return grant.First, nil
}
