package workloads

import (
	"fmt"

	"repro/internal/daemon"
	"repro/internal/mthread"
	"repro/internal/wire"
)

// The pipeline workload pushes items through a chain of dependent
// stages: item i must pass stage s before stage s+1 — the opposite
// extreme from montecarlo. Its critical path is `stages` long no matter
// how many sites exist, which makes it the probe workload for the
// scheduling-hint machinery (paper §3.3: "microthreads in the critical
// path of the application can be identified, which are then executed
// with higher priority").

// Thread indices of the pipeline application.
const (
	PipeStart uint32 = iota
	PipeStage
	PipeReduce
)

// PipeApp describes the pipeline application for submission.
func PipeApp() daemon.App {
	return daemon.App{
		Name: "pipeline",
		Threads: []daemon.AppThread{
			{Index: PipeStart, FuncName: "pipe.start", SrcSize: 500},
			{Index: PipeStage, FuncName: "pipe.stage", SrcSize: 300},
			{Index: PipeReduce, FuncName: "pipe.reduce", SrcSize: 250},
		},
	}
}

// PipeArgs builds the submission arguments: items independent tokens,
// each flowing through stages sequential stages of stageCost Work units.
func PipeArgs(items, stages int, stageCost float64) [][]byte {
	return [][]byte{
		mthread.U64(uint64(items)),
		mthread.U64(uint64(stages)),
		mthread.F64(stageCost),
	}
}

// SeqPipeline is the sequential baseline with the same cost model.
func SeqPipeline(items, stages int, stageCost float64, work func(float64)) uint64 {
	var sum uint64
	for i := 0; i < items; i++ {
		v := uint64(i)
		for s := 0; s < stages; s++ {
			work(stageCost)
			v++
		}
		sum += v
	}
	return sum
}

func pipeStart(ctx mthread.Context) error {
	items := int(mthread.ParseU64(ctx.Param(0)))
	stages := int(mthread.ParseU64(ctx.Param(1)))
	costB := ctx.Param(2)
	if items <= 0 || stages <= 0 || items > maxFanout || stages > maxFanout {
		ctx.Exit(nil)
		return fmt.Errorf("pipe: items and stages must be in 1..%d", maxFanout)
	}

	reduce := ctx.NewFrame(PipeReduce, items)
	for i := 0; i < items; i++ {
		// Build each item's chain back-to-front so every stage knows its
		// successor's address at allocation time (paper §3.2: result
		// addresses must be propagated; allocating early maximizes
		// parallelism).
		next := wire.Target{Addr: reduce, Slot: int32(i)}
		for s := stages - 1; s >= 0; s-- {
			stage := ctx.NewFrame(PipeStage, 2, next)
			next = wire.Target{Addr: stage, Slot: 0}
			if err := ctx.Send(wire.Target{Addr: stage, Slot: 1}, costB); err != nil {
				return err
			}
		}
		if err := ctx.Send(next, mthread.U64(uint64(i))); err != nil {
			return err
		}
	}
	return nil
}

func pipeStage(ctx mthread.Context) error {
	v := mthread.ParseU64(ctx.Param(0))
	ctx.Work(mthread.ParseF64(ctx.Param(1)))
	return ctx.Send(ctx.Target(0), mthread.U64(v+1))
}

func pipeReduce(ctx mthread.Context) error {
	var sum uint64
	for i := 0; i < ctx.Arity(); i++ {
		sum += mthread.ParseU64(ctx.Param(i))
	}
	ctx.Output(fmt.Sprintf("pipeline: checksum %d", sum))
	ctx.Exit(mthread.U64(sum))
	return nil
}

func init() {
	RegisterPipeline(mthread.Global)
}

// RegisterPipeline installs the pipeline microthreads into a registry.
func RegisterPipeline(r *mthread.Registry) {
	r.Register("pipe.start", pipeStart)
	r.Register("pipe.stage", pipeStage)
	r.Register("pipe.reduce", pipeReduce)
}
