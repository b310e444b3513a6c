package daemon_test

import (
	"testing"

	"repro/internal/accounting"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/code"
	"repro/internal/iomgr"
	"repro/internal/memory"
	"repro/internal/msgbus"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/sitemgr"
	"repro/internal/types"
)

// The daemon assembles one manager package per paper layer (§4, Figure
// 4), all meeting at the message bus. These compile-time assertions pin
// that seam: every manager the daemon registers is a msgbus.Handler.
var (
	_ msgbus.Handler = (*memory.Manager)(nil)
	_ msgbus.Handler = (*sched.Manager)(nil)
	_ msgbus.Handler = (*code.Manager)(nil)
	_ msgbus.Handler = (*cluster.Manager)(nil)
	_ msgbus.Handler = (*sitemgr.Manager)(nil)
	_ msgbus.Handler = (*checkpoint.Manager)(nil)
	_ msgbus.Handler = (*accounting.Manager)(nil)
	_ msgbus.Handler = (*program.Manager)(nil)
	_ msgbus.Handler = (*iomgr.Manager)(nil)
)

// TestManagerIDSpace checks that the manager address space the bus
// dispatches on is dense and in range — a new ManagerID constant without
// a slot in the bus's handler table would silently drop messages.
func TestManagerIDSpace(t *testing.T) {
	ids := []types.ManagerID{
		types.MgrCluster, types.MgrSite, types.MgrScheduling,
		types.MgrMemory, types.MgrCode, types.MgrProgram,
		types.MgrCheckpoint, types.MgrAccounting, types.MgrIO,
	}
	seen := make(map[types.ManagerID]bool)
	for _, id := range ids {
		if id < 0 || int(id) >= types.ManagerCount {
			t.Errorf("manager id %d outside [0, %d)", id, types.ManagerCount)
		}
		if seen[id] {
			t.Errorf("manager id %d assigned twice", id)
		}
		seen[id] = true
	}
}
