package accounting

import (
	"testing"
	"time"

	"repro/internal/testnet"
	"repro/internal/types"
	"repro/internal/wire"
)

func acctCluster(t *testing.T, n int) ([]*testnet.Node, []*Manager) {
	t.Helper()
	mgrs := make([]*Manager, n)
	nodes := testnet.NewCluster(t, n, func(i int, node *testnet.Node) {
		mgrs[i] = New(node.Bus, node.CM)
	})
	return nodes, mgrs
}

func prog() types.ProgramID { return types.MakeProgramID(1, 1) }

func TestLocalRecording(t *testing.T) {
	_, mgrs := acctCluster(t, 1)
	m := mgrs[0]

	m.RecordExecution(prog(), 10*time.Millisecond, 2.5)
	m.RecordExecution(prog(), 5*time.Millisecond, 1.5)
	m.RecordTraffic(prog(), 100)
	m.RecordTraffic(prog(), 50)
	m.RecordOutput(prog())

	u := m.LocalUsage(prog())
	if u.Executed != 2 {
		t.Errorf("Executed = %d", u.Executed)
	}
	if u.WorkUnits != 4.0 {
		t.Errorf("WorkUnits = %v", u.WorkUnits)
	}
	if u.BusyNanos != int64(15*time.Millisecond) {
		t.Errorf("BusyNanos = %d", u.BusyNanos)
	}
	if u.MsgsSent != 2 || u.BytesMoved != 150 {
		t.Errorf("traffic = %d msgs %d bytes", u.MsgsSent, u.BytesMoved)
	}
	if u.Outputs != 1 {
		t.Errorf("Outputs = %d", u.Outputs)
	}
	if u.Site != m.bus.Self() || u.Program != prog() {
		t.Error("usage ids wrong")
	}
}

func TestUnknownProgramIsZero(t *testing.T) {
	_, mgrs := acctCluster(t, 1)
	u := mgrs[0].LocalUsage(types.MakeProgramID(9, 9))
	if u.Executed != 0 || u.WorkUnits != 0 {
		t.Error("phantom usage")
	}
}

func TestClusterUsageAggregates(t *testing.T) {
	_, mgrs := acctCluster(t, 3)
	for i, m := range mgrs {
		for j := 0; j <= i; j++ {
			m.RecordExecution(prog(), time.Millisecond, 1)
		}
	}
	total, perSite := mgrs[0].ClusterUsage(prog())
	if total.Executed != 1+2+3 {
		t.Fatalf("total.Executed = %d, want 6", total.Executed)
	}
	if total.WorkUnits != 6 {
		t.Fatalf("total.WorkUnits = %v", total.WorkUnits)
	}
	if len(perSite) != 3 {
		t.Fatalf("perSite = %d entries", len(perSite))
	}
}

func TestClusterUsageSkipsZeroSilently(t *testing.T) {
	_, mgrs := acctCluster(t, 2)
	mgrs[0].RecordExecution(prog(), time.Millisecond, 1)
	// Site 1 never saw the program; its zero account still aggregates.
	total, perSite := mgrs[1].ClusterUsage(prog())
	if total.Executed != 1 {
		t.Fatalf("total.Executed = %d", total.Executed)
	}
	if len(perSite) != 2 {
		t.Fatalf("perSite = %d", len(perSite))
	}
}

func TestUsageQueryAllPrograms(t *testing.T) {
	_, mgrs := acctCluster(t, 2)
	p2 := types.MakeProgramID(1, 2)
	mgrs[1].RecordExecution(prog(), time.Millisecond, 1)
	mgrs[1].RecordExecution(p2, time.Millisecond, 1)

	reply, err := mgrs[0].bus.Request(mgrs[1].bus.Self(), types.MgrAccounting, types.MgrAccounting,
		&wire.UsageQuery{Program: 0}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ur := reply.Payload.(*wire.UsageReply)
	if len(ur.Accounts) != 2 {
		t.Fatalf("accounts = %d", len(ur.Accounts))
	}
	if ur.Accounts[0].Program > ur.Accounts[1].Program {
		t.Error("accounts not sorted")
	}
}

func TestDropProgram(t *testing.T) {
	_, mgrs := acctCluster(t, 1)
	mgrs[0].RecordExecution(prog(), time.Millisecond, 1)
	mgrs[0].DropProgram(prog())
	if got := mgrs[0].LocalUsage(prog()); got.Executed != 0 {
		t.Error("usage survived DropProgram")
	}
	if len(mgrs[0].LocalPrograms()) != 0 {
		t.Error("program list not empty")
	}
}

func TestInvoice(t *testing.T) {
	u := wire.Usage{
		Executed:   100,
		WorkUnits:  50,
		BusyNanos:  int64(2 * time.Second),
		MsgsSent:   1000,
		BytesMoved: 2 << 20, // 2 MiB
	}
	r := Rates{
		PerMicrothread: 0.01,
		PerWorkUnit:    0.1,
		PerBusySecond:  1.0,
		PerMessage:     0.001,
		PerMegabyte:    0.5,
	}
	want := 100*0.01 + 50*0.1 + 2*1.0 + 1000*0.001 + 2*0.5
	if got := Invoice(u, r); got != want {
		t.Fatalf("Invoice = %v, want %v", got, want)
	}
	if Invoice(u, Rates{}) != 0 {
		t.Fatal("zero rates must invoice zero")
	}
}

func TestUsageAdd(t *testing.T) {
	a := wire.Usage{Executed: 1, WorkUnits: 2, BusyNanos: 3, MsgsSent: 4, BytesMoved: 5, Outputs: 6}
	b := a
	a.Add(b)
	if a.Executed != 2 || a.WorkUnits != 4 || a.BusyNanos != 6 || a.MsgsSent != 8 || a.BytesMoved != 10 || a.Outputs != 12 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestFormatUsage(t *testing.T) {
	u := wire.Usage{Program: prog(), Site: 1, Executed: 5}
	if FormatUsage(u) == "" {
		t.Fatal("empty format")
	}
}
