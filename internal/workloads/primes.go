// Package workloads contains the SDVM applications used by the examples
// and the benchmark harness.
//
// The centerpiece is the paper's evaluation program (§5): "a parallel
// computation of the first p prime numbers, working on width numbers in
// parallel each". The other workloads (fib, montecarlo, pipeline,
// matmul) exercise complementary aspects of the machine: deep dynamic
// frame recursion, embarrassing parallelism, serial chains with a long
// critical path, and attraction-memory traffic.
//
// Every microthread is a registered Go function (see the mthread
// package for why); computation cost is expressed through
// mthread.Context.Work so the benches can run the paper's workload
// shape at a configurable scale on any host.
package workloads

import (
	"fmt"

	"repro/internal/daemon"
	"repro/internal/mthread"
	"repro/internal/types"
	"repro/internal/wire"
)

// maxFanout bounds a start parameter that sets how many frames a program
// spawns. Parameters arrive as wire data, so one is checked before it
// bounds a loop.
const maxFanout = 1 << 16

// Thread indices of the primes application.
const (
	PrimesStart uint32 = iota
	PrimesRound
	PrimesTest
)

// PrimesCostPerTest is the default Work cost (in WorkUnits) of testing
// one candidate. The paper's run shows ≈60 ms per candidate on a 1.7 GHz
// Pentium IV; benches scale this down via the daemon's WorkUnit.
const PrimesCostPerTest = 1.0

// PrimesApp describes the primes application for submission.
func PrimesApp() daemon.App {
	return daemon.App{
		Name: "primes",
		Threads: []daemon.AppThread{
			{Index: PrimesStart, FuncName: "primes.start", SrcSize: 700},
			{Index: PrimesRound, FuncName: "primes.round", SrcSize: 1100},
			{Index: PrimesTest, FuncName: "primes.test", SrcSize: 400},
		},
	}
}

// PrimesArgs builds the submission arguments: find the first p primes,
// testing width candidates in parallel, spending costPerTest Work units
// per candidate.
func PrimesArgs(p, width int, costPerTest float64) [][]byte {
	return [][]byte{
		mthread.U64(uint64(p)),
		mthread.U64(uint64(width)),
		mthread.F64(costPerTest),
	}
}

// ParsePrimesResult decodes the program result: the first p primes.
func ParsePrimesResult(b []byte) []uint64 { return mthread.ParseU64s(b) }

// primesState is the round-to-round state threaded through the collector
// frames: configuration plus the primes found so far.
type primesState struct {
	p     uint64
	width uint64
	next  uint64 // next candidate to test
	cost  float64
	found []uint64
}

func (st *primesState) encode() []byte {
	vals := make([]uint64, 0, 4+len(st.found))
	vals = append(vals, st.p, st.width, st.next, mthread.ParseU64(mthread.F64(st.cost)))
	vals = append(vals, st.found...)
	return mthread.U64s(vals)
}

func decodePrimesState(b []byte) *primesState {
	vals := mthread.ParseU64s(b)
	if len(vals) < 4 {
		return &primesState{}
	}
	return &primesState{
		p:     vals[0],
		width: vals[1],
		next:  vals[2],
		cost:  mthread.ParseF64(mthread.U64(vals[3])),
		found: append([]uint64{}, vals[4:]...),
	}
}

// primesStart is microthread 0: parse the arguments and launch the
// pipeline. Rounds are double-buffered — batch N+1's testers are already
// allocated and executing while batch N's results gather — following the
// paper's §3.2 advice that "every microframe should be allocated as soon
// as possible, because its global address is known not before its
// allocation". (The strict-barrier variant caps the 8-site speedup of a
// width-10 search at 5; the paper reports 6.4, so its program must have
// overlapped rounds the same way.)
func primesStart(ctx mthread.Context) error {
	p := mthread.ParseU64(ctx.Param(0))
	width := mthread.ParseU64(ctx.Param(1))
	cost := mthread.ParseF64(ctx.Param(2))
	if p == 0 || width == 0 {
		ctx.Exit(nil)
		return fmt.Errorf("primes: p and width must be positive")
	}
	st := &primesState{p: p, width: width, next: 2, cost: cost}

	// PrimesPipelineDepth batches in flight: collector c1 gathers batch
	// 1 while later batches already execute toward their collectors.
	// The state threads through the collector chain; each collector
	// learns the addresses of the collectors after it.
	chain := make([]types.FrameID, PrimesPipelineDepth)
	for i := range chain {
		chain[i] = spawnPrimesBatch(ctx, st)
	}
	return sendPrimesState(ctx, chain[0], chain[1:], st)
}

// PrimesPipelineDepth is how many candidate batches execute
// concurrently. Depth 1 is the strict-barrier variant; the paper's
// reported speedups require at least 2 (see primesStart).
const PrimesPipelineDepth = 3

// spawnPrimesBatch allocates one collector and its width testers for the
// next candidate batch, returning the collector's frame id. The
// collector is the program's critical path — it alone unfolds further
// rounds — so it carries the paper's §3.3 priority hint: run first,
// never migrate away from the work it spawns.
func spawnPrimesBatch(ctx mthread.Context, st *primesState) types.FrameID {
	w := int(st.width)
	// Collector: slots 0..w-1 take test results, slot w the chained
	// state (which also names the successor collector).
	round := ctx.NewFramePrio(PrimesRound, w+1, types.PriorityCritical, 0)
	for i := 0; i < w; i++ {
		cand := st.next + uint64(i)
		tf := ctx.NewFramePrio(PrimesTest, 1, types.PriorityNormal, 0,
			wire.Target{Addr: round, Slot: int32(i)})
		// The tester's single parameter carries its candidate and cost.
		payload := mthread.U64s([]uint64{cand, mthread.ParseU64(mthread.F64(st.cost))})
		if err := ctx.Send(wire.Target{Addr: tf, Slot: 0}, payload); err != nil {
			ctx.Output(fmt.Sprintf("primes: dispatch candidate %d: %v", cand, err))
		}
	}
	st.next += st.width
	return round
}

// sendPrimesState hands the chained state to collector dst, naming the
// collectors after it (oldest first).
func sendPrimesState(ctx mthread.Context, dst types.FrameID, succs []types.FrameID, st *primesState) error {
	payload := make([]byte, 0, 12*len(succs)+8+len(st.found)*8+40)
	for _, s := range succs {
		payload = append(payload, mthread.Addr(s)...)
	}
	payload = append(payload, st.encode()...)
	w := int(st.width)
	return ctx.Send(wire.Target{Addr: dst, Slot: int32(w)}, payload)
}

// primesTest is microthread 2: test one candidate for primality. The
// trial division is real computation; Work adds the calibrated cost that
// stands in for the paper's heavyweight 2005-era test.
func primesTest(ctx mthread.Context) error {
	vals := mthread.ParseU64s(ctx.Param(0))
	if len(vals) < 2 {
		return fmt.Errorf("primes.test: short parameter")
	}
	cand := vals[0]
	cost := mthread.ParseF64(mthread.U64(vals[1]))

	isp := IsPrime(cand)
	ctx.Work(cost)

	result := uint64(0)
	if isp {
		result = 1
	}
	return ctx.Send(ctx.Target(0), mthread.U64s([]uint64{cand, result}))
}

// primesRound is microthread 1: gather one batch of results, extend the
// prime list, and either terminate or keep the pipeline two batches
// deep: spawn batch N+2 and pass the state on to collector N+1.
func primesRound(ctx mthread.Context) error {
	w := ctx.Arity() - 1
	chained := ctx.Param(w)
	nsucc := PrimesPipelineDepth - 1
	if len(chained) < 12*nsucc {
		return fmt.Errorf("primes.round: short state parameter")
	}
	succs := make([]types.FrameID, nsucc)
	for i := range succs {
		succs[i] = mthread.ParseAddr(chained[12*i : 12*i+12])
	}
	st := decodePrimesState(chained[12*nsucc:])

	// Slot order equals candidate order, so found primes stay sorted.
	for i := 0; i < w; i++ {
		vals := mthread.ParseU64s(ctx.Param(i))
		if len(vals) >= 2 && vals[1] == 1 {
			st.found = append(st.found, vals[0])
		}
	}

	if uint64(len(st.found)) >= st.p {
		primes := st.found[:st.p]
		ctx.Output(fmt.Sprintf("primes: found %d primes, last = %d", st.p, primes[st.p-1]))
		ctx.Exit(mthread.U64s(primes))
		return nil
	}
	next := spawnPrimesBatch(ctx, st)
	chain := append(succs[1:], next)
	return sendPrimesState(ctx, succs[0], chain, st)
}

// IsPrime is the tester's real computation: plain trial division, the
// kind of deliberately simple test the paper's example application used.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := uint64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NthPrime returns the n-th prime (1-based), for result verification.
func NthPrime(n int) uint64 {
	count := 0
	for c := uint64(2); ; c++ {
		if IsPrime(c) {
			count++
			if count == n {
				return c
			}
		}
	}
}

// SeqPrimes is the stand-alone sequential baseline (paper §5 / [5]): the
// identical computation without any SDVM machinery. work is invoked with
// the per-test cost exactly as the microthreads would, so the difference
// to a 1-site SDVM run is pure machine overhead.
func SeqPrimes(p, width int, costPerTest float64, work func(cost float64)) []uint64 {
	found := make([]uint64, 0, p)
	next := uint64(2)
	for len(found) < p {
		for i := 0; i < width; i++ {
			cand := next + uint64(i)
			isp := IsPrime(cand)
			work(costPerTest)
			if isp {
				found = append(found, cand)
			}
		}
		next += uint64(width)
	}
	return found[:p]
}

func init() {
	RegisterPrimes(mthread.Global)
}

// RegisterPrimes installs the primes microthreads into a registry.
func RegisterPrimes(r *mthread.Registry) {
	r.Register("primes.start", primesStart)
	r.Register("primes.round", primesRound)
	r.Register("primes.test", primesTest)
}
