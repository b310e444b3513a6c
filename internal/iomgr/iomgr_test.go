package iomgr

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/testnet"
	"repro/internal/types"
	"repro/internal/wire"
)

type sinkRec struct {
	mu    sync.Mutex
	lines []string
	ch    chan string
}

func newSinkRec() *sinkRec { return &sinkRec{ch: make(chan string, 64)} }

func (s *sinkRec) sink(prog types.ProgramID, text string) {
	s.mu.Lock()
	s.lines = append(s.lines, text)
	s.mu.Unlock()
	s.ch <- text
}

func ioCluster(t *testing.T, n int) ([]*testnet.Node, []*Manager, []*sinkRec) {
	t.Helper()
	mgrs := make([]*Manager, n)
	sinks := make([]*sinkRec, n)
	nodes := testnet.NewCluster(t, n, func(i int, node *testnet.Node) {
		mgrs[i] = New(node.Bus)
		sinks[i] = newSinkRec()
		mgrs[i].SetSink(sinks[i].sink)
	})
	for _, m := range mgrs {
		t.Cleanup(m.CloseAll)
	}
	return nodes, mgrs, sinks
}

func TestOutputLocalFrontend(t *testing.T) {
	_, mgrs, sinks := ioCluster(t, 1)
	prog := types.MakeProgramID(1, 1)
	self := mgrs[0].bus.Self()
	mgrs[0].SetFrontendSite(func(types.ProgramID) types.SiteID { return self })

	mgrs[0].Output(prog, "hello")
	if got := <-sinks[0].ch; got != "hello" {
		t.Fatalf("sink got %q", got)
	}
	if mgrs[0].Outputs() != 1 {
		t.Fatalf("Outputs = %d", mgrs[0].Outputs())
	}
}

func TestOutputRoutedToRemoteFrontend(t *testing.T) {
	// Paper §4: "the I/O manager sends all output ... to the front end"
	// wherever the microthread runs.
	_, mgrs, sinks := ioCluster(t, 2)
	prog := types.MakeProgramID(1, 1)
	frontend := mgrs[0].bus.Self()
	for _, m := range mgrs {
		m.SetFrontendSite(func(types.ProgramID) types.SiteID { return frontend })
	}

	mgrs[1].Output(prog, "from afar")
	if got := <-sinks[0].ch; got != "from afar" {
		t.Fatalf("frontend got %q", got)
	}
	select {
	case l := <-sinks[1].ch:
		t.Fatalf("output delivered to the wrong site: %q", l)
	default:
	}
}

func TestLocalFileRoundTrip(t *testing.T) {
	_, mgrs, _ := ioCluster(t, 1)
	m := mgrs[0]
	path := filepath.Join(t.TempDir(), "data.bin")

	h, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.WriteAt(h, 0, []byte("hello world")); err != nil || n != 11 {
		t.Fatalf("WriteAt = (%d,%v)", n, err)
	}
	got, err := m.ReadAt(h, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "world" {
		t.Fatalf("ReadAt = %q", got)
	}
	if err := m.Close(h); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(h, 0, 1); !errors.Is(err, types.ErrNoSuchObject) {
		t.Fatalf("read after close = %v", err)
	}
}

func TestRemoteFileAccess(t *testing.T) {
	// "All other sites can access any opened file using this file
	// handle — the access is automatically rerouted."
	_, mgrs, _ := ioCluster(t, 2)
	owner, remote := mgrs[0], mgrs[1]
	path := filepath.Join(t.TempDir(), "shared.bin")

	h, err := owner.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Home != owner.bus.Self() {
		t.Fatalf("handle home = %v", h.Home)
	}

	// The remote site writes and reads through the handle.
	if n, err := remote.WriteAt(h, 0, []byte("remote payload")); err != nil || n != 14 {
		t.Fatalf("remote WriteAt = (%d,%v)", n, err)
	}
	got, err := remote.ReadAt(h, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("remote ReadAt = %q", got)
	}

	// The owner sees the remote write.
	got, err = owner.ReadAt(h, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "remote" {
		t.Fatalf("owner ReadAt = %q", got)
	}
	if err := remote.Close(h); err != nil {
		t.Fatal(err)
	}
}

// TestHostileReadLengthRefused sends the file's home site read requests
// whose peer-supplied Length is just over maxIOChunk or math.MaxInt32:
// each must be refused before the reply buffer is made, so the whole
// round trip allocates far less than the request asked for.
func TestHostileReadLengthRefused(t *testing.T) {
	_, mgrs, _ := ioCluster(t, 2)
	owner, remote := mgrs[0], mgrs[1]
	h, err := owner.Open(filepath.Join(t.TempDir(), "victim.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteAt(h, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	for _, length := range []int32{maxIOChunk + 1, math.MaxInt32} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := remote.request(owner.bus.Self(), &wire.IORequest{
			Op: wire.IOOpRead, Handle: h, Length: length,
		})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("Length %d: err = %v, want an out-of-range refusal", length, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxIOChunk/2 {
			t.Fatalf("Length %d: the refused request allocated %d bytes", length, grew)
		}
	}
}

func TestOpenOnRemoteSite(t *testing.T) {
	_, mgrs, _ := ioCluster(t, 2)
	path := filepath.Join(t.TempDir(), "far.bin")
	h, err := mgrs[1].OpenOn(mgrs[0].bus.Self(), path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Home != mgrs[0].bus.Self() {
		t.Fatalf("remote open handle home = %v", h.Home)
	}
	if _, err := mgrs[1].WriteAt(h, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingDirectoryFails(t *testing.T) {
	_, mgrs, _ := ioCluster(t, 1)
	if _, err := mgrs[0].Open("/nonexistent-dir-xyz/f"); err == nil {
		t.Fatal("Open in missing directory succeeded")
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, mgrs, _ := ioCluster(t, 2)
	bogus := types.GlobalAddr{Home: mgrs[0].bus.Self(), Local: 999}
	if _, err := mgrs[1].ReadAt(bogus, 0, 4); err == nil {
		t.Fatal("remote read of bogus handle succeeded")
	}
	if err := mgrs[1].Close(bogus); err == nil {
		t.Fatal("remote close of bogus handle succeeded")
	}
}

func TestCloseAll(t *testing.T) {
	_, mgrs, _ := ioCluster(t, 1)
	m := mgrs[0]
	dir := t.TempDir()
	h1, _ := m.Open(filepath.Join(dir, "a"))
	h2, _ := m.Open(filepath.Join(dir, "b"))
	m.CloseAll()
	for _, h := range []types.GlobalAddr{h1, h2} {
		if _, err := m.ReadAt(h, 0, 1); err == nil {
			t.Fatal("file survived CloseAll")
		}
	}
}
