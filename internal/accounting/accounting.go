// Package accounting implements the SDVM's accounting manager — the
// feature the paper proposes for commercial operation: "the SDVM could
// act as a service provider, letting customers run calculation-intensive
// applications on external computer clusters. ... The accounting
// functionality needed for this can be integrated into the SDVM" (§2.2),
// and §6: "for a commercial use of the SDVM as an application layer like
// a middleware, methods to distinguish users and accounting functions
// should be implemented."
//
// Every site keeps a local account per program: microthreads executed,
// Work units spent, busy wall-clock time, messages, bytes of parameters
// moved, and frontend output lines. ClusterUsage aggregates the accounts
// from every live site, and Invoice prices them with a configurable
// rate card.
package accounting

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/msgbus"
	"repro/internal/types"
	"repro/internal/wire"
)

// Rates is the price card for Invoice. All rates may be zero.
type Rates struct {
	PerMicrothread float64 // per executed microthread
	PerWorkUnit    float64 // per Context.Work unit
	PerBusySecond  float64 // per second of processor time
	PerMessage     float64 // per SDMessage the program caused
	PerMegabyte    float64 // per MiB of parameter data moved
}

// Manager is one site's accounting manager.
type Manager struct {
	bus *msgbus.Bus
	cm  *cluster.Manager

	mu sync.Mutex
	// accounts is the per-program meter. guarded by mu
	accounts map[types.ProgramID]*wire.Usage
}

// New returns an accounting manager registered for MgrAccounting.
func New(bus *msgbus.Bus, cm *cluster.Manager) *Manager {
	m := &Manager{
		bus:      bus,
		cm:       cm,
		accounts: make(map[types.ProgramID]*wire.Usage),
	}
	bus.Register(types.MgrAccounting, m)
	return m
}

// account returns (creating if needed) the local account of prog.
// Caller holds m.mu.
func (m *Manager) accountLocked(prog types.ProgramID) *wire.Usage {
	u, ok := m.accounts[prog]
	if !ok {
		u = &wire.Usage{Program: prog, Site: m.bus.Self()}
		m.accounts[prog] = u
	}
	return u
}

// RecordExecution is the processing manager's per-execution hook: one
// microthread finished after busy wall-clock time, having spent
// workUnits of Context.Work.
func (m *Manager) RecordExecution(prog types.ProgramID, busy time.Duration, workUnits float64) {
	m.mu.Lock()
	u := m.accountLocked(prog)
	u.Executed++
	u.BusyNanos += int64(busy)
	u.WorkUnits += workUnits
	m.mu.Unlock()
}

// RecordTraffic books one outgoing message with payload bytes on behalf
// of prog.
func (m *Manager) RecordTraffic(prog types.ProgramID, bytes int) {
	m.mu.Lock()
	u := m.accountLocked(prog)
	u.MsgsSent++
	u.BytesMoved += uint64(bytes)
	m.mu.Unlock()
}

// RecordOutput books one frontend line.
func (m *Manager) RecordOutput(prog types.ProgramID) {
	m.mu.Lock()
	m.accountLocked(prog).Outputs++
	m.mu.Unlock()
}

// LocalUsage returns this site's account of prog.
func (m *Manager) LocalUsage(prog types.ProgramID) wire.Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	if u, ok := m.accounts[prog]; ok {
		return *u
	}
	return wire.Usage{Program: prog, Site: m.bus.Self()}
}

// LocalPrograms lists the programs with a local account, sorted.
func (m *Manager) LocalPrograms() []types.ProgramID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]types.ProgramID, 0, len(m.accounts))
	for p := range m.accounts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DropProgram discards the account of a settled program. Accounts
// survive program termination on purpose (the invoice comes after the
// run); dropping is an explicit settlement step.
func (m *Manager) DropProgram(prog types.ProgramID) {
	m.mu.Lock()
	delete(m.accounts, prog)
	m.mu.Unlock()
}

// ClusterUsage aggregates prog's accounts from every live site. Sites
// that fail to answer are skipped (their share is simply missing, as on
// any metered system with a dead meter); the per-site breakdown is
// returned alongside the total.
func (m *Manager) ClusterUsage(prog types.ProgramID) (total wire.Usage, perSite []wire.Usage) {
	total = wire.Usage{Program: prog}
	for _, id := range m.cm.SiteIDs() {
		var u wire.Usage
		if id == m.bus.Self() {
			u = m.LocalUsage(prog)
		} else {
			reply, err := m.bus.Request(id, types.MgrAccounting, types.MgrAccounting,
				&wire.UsageQuery{Program: prog}, 3*time.Second)
			if err != nil {
				continue
			}
			ur, ok := reply.Payload.(*wire.UsageReply)
			if !ok || len(ur.Accounts) == 0 {
				continue
			}
			u = ur.Accounts[0]
		}
		perSite = append(perSite, u)
		total.Add(u)
	}
	return total, perSite
}

// Invoice prices a usage under the rate card.
func Invoice(u wire.Usage, r Rates) float64 {
	return float64(u.Executed)*r.PerMicrothread +
		u.WorkUnits*r.PerWorkUnit +
		time.Duration(u.BusyNanos).Seconds()*r.PerBusySecond +
		float64(u.MsgsSent)*r.PerMessage +
		float64(u.BytesMoved)/(1<<20)*r.PerMegabyte
}

// FormatUsage renders a usage line for operator tools.
func FormatUsage(u wire.Usage) string {
	return fmt.Sprintf("%v on %v: %d microthreads, %.1f work units, %v busy, %d msgs, %.2f MiB, %d output lines",
		u.Program, u.Site, u.Executed, u.WorkUnits,
		time.Duration(u.BusyNanos).Round(time.Millisecond),
		u.MsgsSent, float64(u.BytesMoved)/(1<<20), u.Outputs)
}

// HandleMessage implements msgbus.Handler.
func (m *Manager) HandleMessage(msg *wire.Message) {
	q, ok := msg.Payload.(*wire.UsageQuery)
	if !ok {
		return
	}
	m.mu.Lock()
	var accounts []wire.Usage
	if q.Program != 0 {
		if u, found := m.accounts[q.Program]; found {
			accounts = append(accounts, *u)
		} else {
			accounts = append(accounts, wire.Usage{Program: q.Program, Site: m.bus.Self()})
		}
	} else {
		for _, u := range m.accounts {
			accounts = append(accounts, *u)
		}
	}
	m.mu.Unlock()
	sort.Slice(accounts, func(i, j int) bool { return accounts[i].Program < accounts[j].Program })
	_ = m.bus.Reply(msg, types.MgrAccounting, &wire.UsageReply{Accounts: accounts})
}
