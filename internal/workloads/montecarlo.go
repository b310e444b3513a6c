package workloads

import (
	"fmt"
	"math"

	"repro/internal/daemon"
	"repro/internal/mthread"
	"repro/internal/wire"
)

// The montecarlo workload estimates π by sampling points in the unit
// square across independent chunks — the public-resource-computing shape
// the paper's introduction discusses (Seti@Home-style independent work
// units), here expressed as one flat dataflow fan-out/fan-in.

// Thread indices of the montecarlo application.
const (
	PiStart uint32 = iota
	PiChunk
	PiReduce
)

// PiApp describes the montecarlo application for submission.
func PiApp() daemon.App {
	return daemon.App{
		Name: "montecarlo-pi",
		Threads: []daemon.AppThread{
			{Index: PiStart, FuncName: "pi.start", SrcSize: 400},
			{Index: PiChunk, FuncName: "pi.chunk", SrcSize: 600},
			{Index: PiReduce, FuncName: "pi.reduce", SrcSize: 300},
		},
	}
}

// PiArgs builds the submission arguments: chunks work units, each
// sampling samplesPerChunk points and spending chunkCost Work units.
func PiArgs(chunks, samplesPerChunk int, chunkCost float64, seed uint64) [][]byte {
	return [][]byte{
		mthread.U64(uint64(chunks)),
		mthread.U64(uint64(samplesPerChunk)),
		mthread.F64(chunkCost),
		mthread.U64(seed),
	}
}

// SeqPi is the sequential baseline with the same sampling and cost model.
func SeqPi(chunks, samplesPerChunk int, chunkCost float64, seed uint64, work func(float64)) float64 {
	var inside, total uint64
	for c := 0; c < chunks; c++ {
		in, n := piSample(seed+uint64(c), samplesPerChunk)
		work(chunkCost)
		inside += in
		total += n
	}
	return 4 * float64(inside) / float64(total)
}

// piSample counts hits inside the quarter circle with a deterministic
// xorshift generator, so distributed and sequential runs agree exactly.
func piSample(seed uint64, samples int) (inside, total uint64) {
	s := seed*2862933555777941757 + 3037000493
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := 0; i < samples; i++ {
		x := float64(next()%(1<<30)) / float64(1<<30)
		y := float64(next()%(1<<30)) / float64(1<<30)
		if x*x+y*y <= 1 {
			inside++
		}
	}
	return inside, uint64(samples)
}

func piStart(ctx mthread.Context) error {
	chunks := int(mthread.ParseU64(ctx.Param(0)))
	samples := mthread.ParseU64(ctx.Param(1))
	costB := ctx.Param(2)
	seed := mthread.ParseU64(ctx.Param(3))
	if chunks <= 0 || chunks > maxFanout {
		ctx.Exit(nil)
		return fmt.Errorf("pi: chunks must be in 1..%d", maxFanout)
	}

	reduce := ctx.NewFrame(PiReduce, chunks)
	for c := 0; c < chunks; c++ {
		chunk := ctx.NewFrame(PiChunk, 1, wire.Target{Addr: reduce, Slot: int32(c)})
		payload := mthread.U64s([]uint64{seed + uint64(c), samples, mthread.ParseU64(costB)})
		if err := ctx.Send(wire.Target{Addr: chunk, Slot: 0}, payload); err != nil {
			return err
		}
	}
	return nil
}

func piChunk(ctx mthread.Context) error {
	vals := mthread.ParseU64s(ctx.Param(0))
	if len(vals) < 3 {
		return fmt.Errorf("pi.chunk: short parameter")
	}
	seed, samples := vals[0], int(vals[1])
	cost := mthread.ParseF64(mthread.U64(vals[2]))

	inside, total := piSample(seed, samples)
	ctx.Work(cost)
	return ctx.Send(ctx.Target(0), mthread.U64s([]uint64{inside, total}))
}

func piReduce(ctx mthread.Context) error {
	var inside, total uint64
	for i := 0; i < ctx.Arity(); i++ {
		vals := mthread.ParseU64s(ctx.Param(i))
		if len(vals) >= 2 {
			inside += vals[0]
			total += vals[1]
		}
	}
	pi := 4 * float64(inside) / float64(total)
	ctx.Output(fmt.Sprintf("pi ≈ %.6f (error %.6f)", pi, math.Abs(pi-math.Pi)))
	ctx.Exit(mthread.F64(pi))
	return nil
}

func init() {
	RegisterPi(mthread.Global)
}

// RegisterPi installs the montecarlo microthreads into a registry.
func RegisterPi(r *mthread.Registry) {
	r.Register("pi.start", piStart)
	r.Register("pi.chunk", piChunk)
	r.Register("pi.reduce", piReduce)
}
