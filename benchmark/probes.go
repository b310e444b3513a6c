package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	clustermgr "repro/internal/cluster"
	"repro/internal/msgbus"
	"repro/internal/mthread"
	"repro/internal/netmgr"
	"repro/internal/sched"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/tcp"
	"repro/internal/types"
	"repro/internal/wire"
)

// Probes time the public functions of the layers below the managers, which
// no span around a workload call can isolate. Each runs for cfg.probeFor
// inside the traced pass, on the layers the workload's deployed
// configuration uses: none of the network probes on a one-site cluster,
// security and TCP only where the cluster runs over TCP with AES-GCM.

const (
	smallBytes = 64
	largeBytes = 64 << 10
)

// runProbes adds the probe metrics of cfg's workload to values.
func runProbes(cfg runConfig, c *cluster, values map[string]float64) {
	fail := func(what string, err error) {
		fmt.Fprintf(cfg.log, "probe %s: %v\n", what, err)
	}
	d := cfg.probeFor
	spec := cfg.w.spec
	if len(cfg.w.threads) > 0 {
		for _, p := range []struct {
			depth int
			name  string
		}{{1, "sched.enq_deq_ns_d1"}, {10_000, "sched.enq_deq_ns_d10k"}} {
			ns, err := probeSched(p.depth, d)
			if err != nil {
				fail(p.name, err)
			}
			values[p.name] = ns
		}
	}
	if spec.sites() < 2 {
		return
	}

	values["wire.encode_ns_64b"], values["wire.decode_ns_64b"], values["wire.allocs_per_msg"] = probeWire(smallBytes, d)
	values["wire.encode_ns_64k"], values["wire.decode_ns_64k"], _ = probeWire(largeBytes, d)

	rtt, err := probeRequest(c, d)
	if err != nil {
		fail("msgbus.request_rtt_us_p50", err)
	}
	values["msgbus.request_rtt_us_p50"] = rtt

	var (
		net transport.Network = tcp.New()
		sec security.Layer    = security.Plaintext{}
		at                    = "127.0.0.1:0"
	)
	if spec.tcp {
		aes, err := security.NewAESGCM(clusterSecret)
		if err != nil {
			fail("security", err)
			return
		}
		sec = aes
		values["security.seal_ns_64b"], values["security.open_ns_64b"] = probeSecurity(aes, smallBytes, d)
		values["security.seal_ns_64k"], values["security.open_ns_64k"] = probeSecurity(aes, largeBytes, d)

		rtt, mbps, err := probeTransport(net, at, d)
		if err != nil {
			fail("transport.tcp", err)
		}
		values["transport.tcp_rtt_us_p50"], values["transport.tcp_mb_per_s"] = rtt, mbps
	} else {
		fab := inproc.New(inproc.LinkProfile{})
		defer fab.Close()
		net, at = fab, "probe"
		rtt, _, err := probeTransport(net, at, d)
		if err != nil {
			fail("transport.inproc", err)
		}
		values["transport.inproc_rtt_us_p50"] = rtt
	}

	ns, err := probeNetmgr(net, sec, at, d)
	if err != nil {
		fail("netmgr.send_ns_per_msg", err)
	}
	values["netmgr.send_ns_per_msg"] = ns
}

// perCall repeats fn in batches until d has passed and returns the mean
// nanoseconds per call.
func perCall(d time.Duration, fn func()) float64 {
	const batch = 64
	fn() // pools and caches fill outside the timing
	calls, start := 0, time.Now()
	for time.Since(start) < d {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	return float64(time.Since(start)) / float64(calls)
}

// probeWire times the deployed codec path on one ApplyParam of the given
// payload size: a pooled writer per encode as msgbus.sendRemote does, and
// DecodeBytes as msgbus.OnDatagram does. allocs is heap allocations per
// encode+decode pair.
func probeWire(size int, d time.Duration) (encodeNS, decodeNS, allocs float64) {
	msg := &wire.Message{
		Src: 1, Dst: 2, SrcMgr: types.MgrMemory, DstMgr: types.MgrMemory, Seq: 1,
		Payload: &wire.ApplyParam{
			Dst:  wire.Target{Addr: types.GlobalAddr{Home: 2, Local: 41}, Slot: 1},
			Data: make([]byte, size),
		},
	}
	encode := func() {
		w := wire.GetWriter(0)
		msg.Encode(w)
		w.Release()
	}
	buf := msg.EncodeBytes()
	var decodeErr error
	decode := func() {
		if _, err := wire.DecodeBytes(buf); err != nil {
			decodeErr = err
		}
	}
	encodeNS = perCall(d/2, encode)
	decodeNS = perCall(d/2, decode)
	if decodeErr != nil {
		return encodeNS, 0, 0
	}

	const pairs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		encode()
		decode()
	}
	runtime.ReadMemStats(&after)
	return encodeNS, decodeNS, float64(after.Mallocs-before.Mallocs) / pairs
}

// probeSecurity times AES-GCM sealing and opening in place, as the network
// manager uses them. Opening consumes its input, so it is timed as the
// difference between seal+open pairs and seals alone.
func probeSecurity(l *security.AESGCM, size int, d time.Duration) (sealNS, openNS float64) {
	buf := make([]byte, l.PrefixOverhead()+size, l.PrefixOverhead()+size+l.SuffixOverhead())
	env := buf
	ok := true
	seal := func() []byte {
		sealed, err := l.SealInPlace(env)
		if err != nil {
			ok = false
		}
		return sealed
	}
	sealNS = perCall(d/2, func() { seal() })
	pairNS := perCall(d/2, func() {
		if _, err := l.OpenInPlace(seal()); err != nil {
			ok = false
		}
	})
	if !ok {
		return 0, 0
	}
	return sealNS, pairNS - sealNS
}

// probeTransport echoes datagrams over one link of net: the median
// round-trip of a 64 B datagram, and the one-way rate of 64 KiB datagrams
// sent back to back and closed by an echoed marker.
func probeTransport(net transport.Network, addr string, d time.Duration) (rttUS, mbPerS float64, err error) {
	l, err := net.Listen(addr)
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		ep, err := l.Accept()
		if err != nil {
			return
		}
		defer ep.Close()
		for {
			dgram, err := ep.Recv()
			if err != nil {
				return
			}
			// One byte ends the probe, other small datagrams are echoed,
			// large ones are only consumed.
			if len(dgram) == 1 || (len(dgram) <= smallBytes && ep.Send(dgram) != nil) {
				return
			}
		}
	}()
	ep, err := net.Dial(l.Addr())
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		// An in-process endpoint does not see its peer close, so the
		// echo side is told to stop; if even that cannot be sent, closing
		// the network ends it.
		stopped := ep.Send([]byte{0}) == nil
		ep.Close()
		if stopped {
			<-served
		}
	}()

	small, large := make([]byte, smallBytes), make([]byte, largeBytes)
	echo := func() error {
		if err := ep.Send(small); err != nil {
			return err
		}
		_, err := ep.Recv()
		return err
	}
	var rtts []float64
	for start := time.Now(); time.Since(start) < d/2; {
		t0 := time.Now()
		if err := echo(); err != nil {
			return 0, 0, err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}

	sent, start := 0, time.Now()
	for time.Since(start) < d/2 {
		for i := 0; i < 16; i++ {
			if err := ep.Send(large); err != nil {
				return 0, 0, err
			}
		}
		sent += 16
	}
	if err := echo(); err != nil { // links deliver in order: all of it arrived
		return 0, 0, err
	}
	mb := float64(sent) * largeBytes / 1e6
	return median(rtts), mb / time.Since(start).Seconds(), nil
}

// probeNetmgr sends 64 B datagrams from one network manager to another
// over net with sec and returns the sender's nanoseconds per datagram,
// the receiver draining all the while.
func probeNetmgr(net transport.Network, sec security.Layer, addr string, d time.Duration) (float64, error) {
	var got atomic.Int64
	recv := netmgr.New(net, sec, func([]byte) { got.Add(1) })
	defer recv.Close()
	at, err := recv.Listen(addr)
	if err != nil {
		return 0, err
	}
	send := netmgr.New(net, sec, func([]byte) {})
	defer send.Close()

	dgram := make([]byte, smallBytes)
	var sendErr error
	sent := int64(1)
	ns := perCall(d, func() {
		if err := send.Send(at, dgram); err != nil {
			sendErr = err
		}
		sent++
	})
	if sendErr != nil {
		return 0, sendErr
	}
	if !pollUntil(5*time.Second, func() bool { return got.Load() >= sent-1 }) {
		return 0, fmt.Errorf("receiver got %d of %d datagrams", got.Load(), sent)
	}
	return ns, nil
}

// probeRequest measures the median Ping→Pong round-trip of Bus.Request
// from site 0 to site 1 of the (now idle) cluster.
func probeRequest(c *cluster, d time.Duration) (float64, error) {
	bus, dst := c.sites[0].Daemon.Bus, c.sites[1].ID()
	var rtts []float64
	nonce := uint64(0)
	for start := time.Now(); time.Since(start) < d; {
		nonce++
		t0 := time.Now()
		reply, err := bus.Request(dst, types.MgrCluster, types.MgrCluster, &wire.Ping{Nonce: nonce}, time.Second)
		if err != nil {
			return 0, err
		}
		if pong, ok := reply.Payload.(*wire.Pong); !ok || pong.Nonce != nonce {
			return 0, fmt.Errorf("ping %d answered by %v", nonce, reply)
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	return median(rtts), nil
}

// noopResolver resolves every thread to an empty microthread.
type noopResolver struct{}

func (noopResolver) Resolve(types.ThreadID) (mthread.Func, error) {
	return func(mthread.Context) error { return nil }, nil
}

type probeAddrs struct{ cm *clustermgr.Manager }

func (r *probeAddrs) PhysAddr(id types.SiteID) (string, error) { return r.cm.PhysAddr(id) }
func (r *probeAddrs) SiteIDs() []types.SiteID                  { return r.cm.SiteIDs() }

// probeSched times one Enqueue plus one TryGetWork on a stand-alone
// scheduling manager that holds depth frames, code resolution included.
// With no peers nothing scatters, so this is the local queue path alone.
func probeSched(depth int, d time.Duration) (float64, error) {
	fab := inproc.New(inproc.LinkProfile{})
	defer fab.Close()
	var bus *msgbus.Bus
	nm := netmgr.New(fab, security.Plaintext{}, func(dgram []byte) { bus.OnDatagram(dgram) })
	defer nm.Close()
	addrs := &probeAddrs{}
	bus = msgbus.New(addrs, nm)
	cm := clustermgr.New(bus, clustermgr.Config{PhysAddr: "sched-probe"})
	addrs.cm = cm
	if _, err := nm.Listen("sched-probe"); err != nil {
		return 0, err
	}
	bus.Start()
	defer bus.Close()
	cm.Bootstrap()
	s := sched.New(bus, cm, noopResolver{}, sched.Config{})
	s.Start()
	defer s.Close()

	thread := types.ThreadID{Program: types.MakeProgramID(1, 1), Index: 0}
	next := uint64(0)
	frame := func() *wire.Microframe {
		next++
		return wire.NewMicroframe(types.GlobalAddr{Home: clustermgr.BootstrapID, Local: next}, thread, 0)
	}
	for i := 0; i < depth; i++ {
		s.Enqueue(frame())
	}
	stuck := time.Now().Add(d + 5*time.Second)
	var err error
	ns := perCall(d, func() {
		s.Enqueue(frame())
		for err == nil {
			if _, ok := s.TryGetWork(); ok {
				return
			}
			if time.Now().After(stuck) {
				err = fmt.Errorf("no ready frame at depth %d", depth)
			}
			runtime.Gosched()
		}
	})
	return ns, err
}
