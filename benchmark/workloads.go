package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	sdvm "repro"
	"repro/internal/daemon"
	"repro/internal/mthread"
	"repro/internal/types"
	"repro/internal/workloads"
)

// sizes holds every workload's input sizes. The defaults are the
// benchmark; the smoke test shrinks them.
type sizes struct {
	fibN         int           // unfold-*: fib argument
	relayTokens  int           // relay-tcp: tokens per program
	relayStages  int           // relay-tcp: forwarding stages per token
	piChunks     int           // tenants-tcp: chunks per program
	piSamples    int           // tenants-tcp: samples per chunk
	hotObjects   int           // mem-readhot: objects homed on site 0
	hotBytes     int           // mem-readhot: object size
	hotWriteOnce int           // mem-readhot: one owner-side write per this many reads
	pingObjects  int           // mem-pingpong: objects per client
	pingBytes    int           // mem-pingpong: object size
	primesP      int           // primes-hetero: primes to find
	primesWidth  int           // primes-hetero: candidates tested in parallel
	primesCost   float64       // primes-hetero: Work units per test
	waitTimeout  time.Duration // per-program Wait deadline
}

var benchSizes = sizes{
	fibN:         20,
	relayTokens:  4000,
	relayStages:  8,
	piChunks:     8,
	piSamples:    200,
	hotObjects:   256,
	hotBytes:     1 << 10,
	hotWriteOnce: 64,
	pingObjects:  16,
	pingBytes:    256,
	primesP:      300,
	primesWidth:  10,
	primesCost:   6,
	waitTimeout:  60 * time.Second,
}

// workload is one named traffic mix with its deployed configuration.
type workload struct {
	name string
	// why records the reason the workload exists (BENCHMARK.json repeats it).
	why  string
	spec clusterSpec
	// unit names what work_per_s counts on this workload.
	unit string
	// tail is the percentile op_tail_ms reports, fixed per workload so
	// that the metric means the same on every run: p99 where a run times
	// thousands of ops, p90 where it times dozens (fewer than ten samples
	// lie beyond it there, which is why its bound is the widest), and 0,
	// the slowest op, for the three programs of primes-hetero.
	tail float64
	// threads lists the microthreads to wrap for the traced pass.
	threads []string
	// procs, when not 0, is the GOMAXPROCS of the run. primes-hetero sleeps
	// nine tenths of the time, and what its goroutine hand-offs cost across
	// two mostly idle vCPUs depends on how busy the machine was in the
	// seconds before: right after 10 s of CPU load (another workload's run,
	// say) its first program ran 5-10 % longer and every program burnt 25 %
	// more CPU than after an idle spell, sometimes for the whole run. One P
	// keeps the hand-offs on one vCPU, is ample for a tenth of a core of
	// work, and left 3 % of that on makespan and 5 % on CPU.
	procs int
	// traceEvery samples the traced pass: one microthread body (or memory
	// hand-off) in this many is recorded with its children, chosen so that
	// a 10 s window stays well below maxSpans on this machine.
	traceEvery int
	// prepare generates the workload's inputs on a freshly built cluster
	// and returns the function that drives one window of load; state that
	// must survive from the warm-up into the measured window lives in it.
	prepare func(e *env) func(win *window)
}

func appNames(app daemon.App) []string {
	out := make([]string, len(app.Threads))
	for i, t := range app.Threads {
		out[i] = t.FuncName
	}
	return out
}

var allWorkloads = []workload{
	{
		name:       "unfold-1site",
		why:        "fib(20) dataflow recursion on one site: exec, sched and memory frame paths do all the work and every network layer none",
		spec:       clusterSpec{speeds: uniform(1)},
		unit:       "frames",
		tail:       0.9,
		threads:    appNames(workloads.FibApp()),
		traceEvery: 96,
		prepare:    prepareFib,
	},
	{
		name:       "unfold-4site",
		why:        "the same recursion on 4 in-process plaintext sites: scatter, help requests and bus messages dominate while security and TCP are bypassed",
		spec:       clusterSpec{speeds: uniform(4)},
		unit:       "frames",
		tail:       0.9,
		threads:    appNames(workloads.FibApp()),
		traceEvery: 192,
		prepare:    prepareFib,
	},
	{
		name:       "relay-tcp",
		why:        "payloads of 64 B to 64 KiB forwarded through 8 hops on 4 TCP+AES sites: bytes-bound use of wire, security, netmgr and transport",
		spec:       clusterSpec{tcp: true, speeds: uniform(4)},
		unit:       "KiB",
		tail:       0.9,
		threads:    relayNames,
		traceEvery: 48,
		prepare:    prepareRelay,
	},
	{
		name:       "tenants-tcp",
		why:        "two clients submitting small pi programs back to back on the same TCP+AES stack: latency-bound, prices program register, broadcast, terminate and GC",
		spec:       clusterSpec{tcp: true, speeds: uniform(4)},
		unit:       "programs",
		tail:       0.99,
		threads:    appNames(workloads.PiApp()),
		traceEvery: 48,
		prepare:    prepareTenants,
	},
	{
		name:    "mem-readhot",
		why:     "two remote readers sweeping 256 objects homed on one site with 1 owner write per 64 reads: replica-hit path with invalidation and re-fault priced in",
		spec:    clusterSpec{tcp: true, speeds: uniform(4)},
		unit:    "ops",
		tail:    0.99,
		prepare: prepareReadHot,
	},
	{
		name:       "mem-pingpong",
		why:        "objects handed back and forth between site pairs, write then remote read: every op invalidates or re-faults, the regime a replica optimisation can tax",
		spec:       clusterSpec{tcp: true, speeds: uniform(4)},
		unit:       "ops",
		tail:       0.99,
		traceEvery: 16,
		prepare:    preparePingPong,
	},
	{
		name:    "primes-hetero",
		why:     "the paper's prime search with simulated 6 ms tests on sites of speed 2, 1, 1, 0.5 with checkpoints on: compute-bound, so only scheduling and checkpoint changes should move it",
		spec:    clusterSpec{speeds: []float64{2, 1, 1, 0.5}, crashMgmt: true},
		procs:   1,
		unit:    "tests",
		threads: appNames(workloads.PrimesApp()),
		prepare: preparePrimes,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a load function works with: the built cluster, the seeded
// generator of its inputs, and the recorder of the traced pass (nil
// otherwise).
type env struct {
	c    *cluster
	sz   sizes
	seed int64
	rec  *recorder
}

// traced reports whether this is the cluster of a traced pass, whose
// programs run the wrapped microthreads.
func (e *env) traced() bool { return e.rec != nil }

// rng returns a generator for one client's inputs, a function of the seed
// and the client alone.
func (e *env) rng(client int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*7919 + int64(client)))
}

// window is one stretch of load: a warm-up window (results discarded) or
// the measured one. Load functions run ops until open reports false and
// add what they did; clients own disjoint tallies, merged at the end.
type window struct {
	// warm marks the warm-up: every client runs its warm-up ops and stops.
	warm     bool
	deadline time.Time

	mu      sync.Mutex
	tallies []*tally // guarded by mu
	// post holds checks to run on the quiet cluster after the window has
	// been timed; each gets a tally of its own.
	post []func(t *tally)
}

// open reports whether a client that has completed done ops should start
// another: warm-up runs exactly warmOps, the measured window runs until
// its deadline and at least once.
func (w *window) open(done, warmOps int) bool {
	if w.warm {
		return done < warmOps
	}
	return done == 0 || time.Now().Before(w.deadline)
}

// tally is one client's account of a window.
type tally struct {
	attempted int
	failed    int
	units     float64       // work units completed
	seqWork   time.Duration // simulated Work the completed ops need at speed 1
	latMS     []float64     // latency of each timed op
	notes     []string      // first few failure descriptions
	checks    []func() error
}

func (w *window) newTally() *tally {
	t := &tally{}
	w.mu.Lock()
	w.tallies = append(w.tallies, t)
	w.mu.Unlock()
	return t
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// later queues an output check to run after the window closes, so that
// verification costs the load generator nothing while it measures.
func (t *tally) later(check func() error) { t.checks = append(t.checks, check) }

// runProgram submits app on site, waits for its result and accounts the
// op. It returns the result, or nil when the op failed.
func (e *env) runProgram(t *tally, site *sdvm.Site, app daemon.App, args [][]byte) []byte {
	t.attempted++
	root := e.rec.begin(spanOp, noSpan, 0)
	sub := e.rec.begin(spanSubmit, root, 0)
	start := time.Now()
	prog, err := site.Submit(app, args...)
	e.rec.end(sub)
	if root != noSpan {
		e.rec.spans[root].Op = uint64(prog)
	}
	if sub != noSpan {
		e.rec.spans[sub].Op = uint64(prog)
	}
	if err != nil {
		e.rec.end(root)
		t.fail("submit %s: %v", app.Name, err)
		return nil
	}
	wait := e.rec.begin(spanWait, root, uint64(prog))
	res, ok := site.Wait(prog, e.sz.waitTimeout)
	lat := time.Since(start)
	e.rec.end(wait)
	e.rec.end(root)
	if !ok {
		t.fail("%s %v: no result within %v", app.Name, prog, e.sz.waitTimeout)
		return nil
	}
	t.latMS = append(t.latMS, float64(lat)/1e6)
	if res == nil {
		res = []byte{}
	}
	return res
}

// fib returns the n-th Fibonacci number.
func fib(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// prepareFib runs fib programs back to back from one client; work is
// counted in microthreads executed, read from the processing managers.
func prepareFib(e *env) func(win *window) {
	app := tracedApp(workloads.FibApp(), e.traced())
	args := workloads.FibArgs(e.sz.fibN, 0)
	want := fib(e.sz.fibN)
	warmOps := 1
	if len(e.c.sites) > 1 {
		warmOps = 3 // the first programs on a fresh cluster also spread the code
	}
	return func(win *window) {
		t := win.newTally()
		before := e.c.executed()
		for i := 0; win.open(i, warmOps); i++ {
			res := e.runProgram(t, e.c.sites[0], app, args)
			if res != nil && mthread.ParseU64(res) != want {
				t.fail("fib(%d) = %d, want %d", e.sz.fibN, mthread.ParseU64(res), want)
			}
		}
		t.units = float64(e.c.executed() - before)
	}
}

// prepareRelay runs relay programs back to back from one client, each with
// a token set drawn from the seed; work is counted in KiB of hop payload.
func prepareRelay(e *env) func(win *window) {
	rng := e.rng(0)
	app := relayApp(e.traced())
	return func(win *window) {
		t := win.newTally()
		for i := 0; win.open(i, 3); i++ {
			toks := relayTokens(rng, e.sz.relayTokens)
			res := e.runProgram(t, e.c.sites[0], app, relayArgs(toks, e.sz.relayStages))
			if res == nil {
				continue
			}
			if got, want := mthread.ParseU64(res), relayExpected(toks, e.sz.relayStages); got != want {
				t.fail("relay sum %d, want %d", got, want)
				continue
			}
			t.units += float64(relayPayloadBytes(toks, e.sz.relayStages)) / 1024
		}
	}
}

// prepareTenants runs two clients, on sites 0 and 1, each submitting small
// pi programs one after another with a per-program seed.
func prepareTenants(e *env) func(win *window) {
	app := tracedApp(workloads.PiApp(), e.traced())
	rngs := []*rand.Rand{e.rng(0), e.rng(1)}
	return func(win *window) {
		var wg sync.WaitGroup
		for client, rng := range rngs {
			t := win.newTally()
			wg.Add(1)
			go func(site *sdvm.Site, rng *rand.Rand) {
				defer wg.Done()
				for i := 0; win.open(i, 200); i++ {
					piSeed := rng.Uint64()
					res := e.runProgram(t, site, app, workloads.PiArgs(e.sz.piChunks, e.sz.piSamples, 0, piSeed))
					if res == nil {
						continue
					}
					t.units++
					t.later(func() error {
						want := workloads.SeqPi(e.sz.piChunks, e.sz.piSamples, 0, piSeed, func(float64) {})
						if got := mthread.ParseF64(res); got != want {
							return fmt.Errorf("pi(seed %d) = %v, want %v", piSeed, got, want)
						}
						return nil
					})
				}
			}(e.c.sites[client], rng)
		}
		wg.Wait()
	}
}

// primesTests counts the candidates a sequential search tests.
func primesTests(sz sizes) int {
	n := 0
	workloads.SeqPrimes(sz.primesP, sz.primesWidth, sz.primesCost, func(float64) { n++ })
	return n
}

// preparePrimes runs the paper's program back to back from one client;
// work is counted in the candidate tests a sequential search needs, so
// work_per_s is proportional to parallel efficiency. There is no warm-up:
// a program lasts seconds and its protocol cost is ≈0.
func preparePrimes(e *env) func(win *window) {
	app := tracedApp(workloads.PrimesApp(), e.traced())
	args := workloads.PrimesArgs(e.sz.primesP, e.sz.primesWidth, e.sz.primesCost)
	tests, last := primesTests(e.sz), workloads.NthPrime(e.sz.primesP)
	return func(win *window) {
		t := win.newTally()
		for i := 0; win.open(i, 0); i++ {
			res := e.runProgram(t, e.c.sites[0], app, args)
			if res == nil {
				continue
			}
			primes := workloads.ParsePrimesResult(res)
			if len(primes) != e.sz.primesP || primes[len(primes)-1] != last {
				t.fail("primes: %d entries, want %d ending in %d", len(primes), e.sz.primesP, last)
				continue
			}
			t.units += float64(tests)
			t.seqWork += time.Duration(float64(tests) * e.sz.primesCost * float64(workUnit))
		}
	}
}

// memProgram owns the objects of the memory workloads.
var memProgram = types.MakeProgramID(1, 1)

// stamped returns an object payload carrying stamp at both ends, so a torn
// or stale copy shows.
func stamped(size int, stamp uint64) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, stamp)
	binary.LittleEndian.PutUint64(b[size-8:], stamp)
	return b
}

// stampOf reads a payload's stamp and reports whether both ends agree.
func stampOf(b []byte) (uint64, bool) {
	if len(b) < 16 {
		return 0, false
	}
	head, tail := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[len(b)-8:])
	return head, head == tail
}

// memOp runs one memory call and accounts it; a timed call adds its
// latency to the tally, a traced one a span under parent.
func (e *env) memOp(t *tally, name string, parent int32, op uint64, timed, traced bool, call func() error) bool {
	t.attempted++
	var (
		sp    = noSpan
		start time.Time
	)
	if traced {
		sp = e.rec.begin(name, parent, op)
	}
	if timed {
		start = time.Now()
	}
	err := call()
	if timed {
		t.latMS = append(t.latMS, float64(time.Since(start))/1e6)
	}
	e.rec.end(sp)
	if err != nil {
		t.fail("%s: %v", name, err)
		return false
	}
	t.units++
	return true
}

// latencySample is how many memory ops share one timed (and, in the
// traced pass, recorded) op on mem-readhot, where a replica hit costs
// about as much as reading the clock twice. It is coprime to the write
// period so that writes are timed in proportion.
const latencySample = 61

// prepareReadHot has clients on sites 1 and 2 read the objects homed on
// site 0 in seeded order; each also issues one owner-side write per
// hotWriteOnce reads, to the objects it alone writes. A read older than
// the reader's previous read of that object, or older than its own
// completed write, is a failed op. After the measured window every site
// must read the final stamps.
func prepareReadHot(e *env) func(win *window) {
	owner := e.c.sites[0].Daemon.Mem
	n := e.sz.hotObjects
	addrs := make([]types.GlobalAddr, n)
	for i := range addrs {
		addrs[i] = owner.Alloc(memProgram, stamped(e.sz.hotBytes, 0))
	}
	// final[obj] is touched only by the object's one writer while a window
	// runs; seen[client] only by that client.
	final := make([]uint64, n)
	seen := [2][]uint64{make([]uint64, n), make([]uint64, n)}
	rngs := []*rand.Rand{e.rng(0), e.rng(1)}

	client := func(win *window, t *tally, id int) {
		rng, mem, seen := rngs[id], e.c.sites[id+1].Daemon.Mem, seen[id]
		for i := 0; win.open(i, 4*n); i++ {
			obj := rng.Intn(n)
			sampled := i%latencySample == 0
			if i%e.sz.hotWriteOnce == e.sz.hotWriteOnce-1 {
				// Objects are split between the writers by parity, so each
				// object's stamps grow under one writer.
				if obj = obj/2*2 + id; obj >= n {
					obj = id
				}
				stamp := final[obj] + 1
				if e.memOp(t, spanWrite, noSpan, 0, sampled, sampled, func() error {
					return owner.Write(addrs[obj], 0, stamped(e.sz.hotBytes, stamp))
				}) {
					final[obj] = stamp
				}
				continue
			}
			var data []byte
			if !e.memOp(t, spanRead, noSpan, 0, sampled, sampled, func() (err error) {
				data, err = mem.Read(addrs[obj])
				return err
			}) {
				continue
			}
			floor := seen[obj]
			if obj%2 == id && final[obj] > floor {
				floor = final[obj]
			}
			stamp, whole := stampOf(data)
			if !whole || stamp < floor {
				t.units--
				t.fail("object %d: read stamp %d (whole %v) after %d", obj, stamp, whole, floor)
				continue
			}
			seen[obj] = stamp
		}
	}

	return func(win *window) {
		var wg sync.WaitGroup
		for id := 0; id < 2; id++ {
			t := win.newTally()
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				client(win, t, id)
			}(id)
		}
		wg.Wait()
		win.post = append(win.post, func(t *tally) {
			for si, s := range e.c.sites {
				for obj, addr := range addrs {
					t.attempted++
					data, err := s.Daemon.Mem.Read(addr)
					if stamp, whole := stampOf(data); err != nil || !whole || stamp != final[obj] {
						t.fail("quiescent read of object %d on site %d: stamp %d (whole %v, err %v), want %d",
							obj, si, stamp, whole, err, final[obj])
					}
				}
			}
		})
	}
}

// preparePingPong has each client hand its objects back and forth between
// the two sites of its pair: A.Write → B.Read, then B.Write → A.Read, each
// value a fresh stamp. A read that does not return the stamp just written
// is a stale read and a failed op.
func preparePingPong(e *env) func(win *window) {
	type client struct {
		pair  [2]*sdvm.Site
		addrs []types.GlobalAddr
		rng   *rand.Rand
		stamp uint64
		turn  int
	}
	clients := make([]*client, 2)
	for id := range clients {
		c := &client{pair: [2]*sdvm.Site{e.c.sites[2*id], e.c.sites[2*id+1]}, rng: e.rng(id)}
		for i := 0; i < e.sz.pingObjects; i++ {
			c.addrs = append(c.addrs, c.pair[0].Daemon.Mem.Alloc(memProgram, stamped(e.sz.pingBytes, 0)))
		}
		clients[id] = c
	}
	handOff := func(t *tally, id int, c *client) {
		obj := c.rng.Intn(len(c.addrs))
		writer, reader := c.pair[c.turn%2].Daemon.Mem, c.pair[(c.turn+1)%2].Daemon.Mem
		c.turn++
		c.stamp++
		stamp, op := c.stamp, uint64(id)<<32|c.stamp
		traced, root := e.rec.sample(), noSpan
		if traced {
			root = e.rec.begin(spanOp, noSpan, op)
			defer e.rec.end(root)
		}
		if !e.memOp(t, spanWrite, root, op, true, traced, func() error {
			return writer.Write(c.addrs[obj], 0, stamped(e.sz.pingBytes, stamp))
		}) {
			return
		}
		var data []byte
		if !e.memOp(t, spanRead, root, op, true, traced, func() (err error) {
			data, err = reader.Read(c.addrs[obj])
			return err
		}) {
			return
		}
		if got, whole := stampOf(data); !whole || got != stamp {
			t.units--
			t.fail("object %d: read stamp %d (whole %v) right after writing %d", obj, got, whole, stamp)
		}
	}
	return func(win *window) {
		var wg sync.WaitGroup
		for id, c := range clients {
			t := win.newTally()
			wg.Add(1)
			go func(id int, c *client) {
				defer wg.Done()
				for i := 0; win.open(i, 500); i++ {
					handOff(t, id, c)
				}
			}(id, c)
		}
		wg.Wait()
	}
}
