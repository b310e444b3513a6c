package workloads

import (
	"fmt"

	"repro/internal/daemon"
	"repro/internal/mthread"
	"repro/internal/wire"
)

// The matmul workload multiplies two matrices whose data lives in the
// attraction memory as global objects: every block task *reads* both
// operands through the COMA machinery (remote fetch + caching on first
// touch per site) and the result blocks are written back into a global
// result object. It is the workload that actually exercises memory
// migration, the homesite directory, and the latency hiding the
// processing manager's window exists for — block reads stall, siblings
// run.

// maxMatrixDim bounds the start parameters n and grid. They arrive as
// wire data and size an n×n allocation and grid×grid block tasks.
const maxMatrixDim = 2048

// Thread indices of the matmul application.
const (
	MMStart uint32 = iota
	MMBlock
	MMReduce
)

// MatMulApp describes the matmul application for submission.
func MatMulApp() daemon.App {
	return daemon.App{
		Name: "matmul",
		Threads: []daemon.AppThread{
			{Index: MMStart, FuncName: "mm.start", SrcSize: 900},
			{Index: MMBlock, FuncName: "mm.block", SrcSize: 800},
			{Index: MMReduce, FuncName: "mm.reduce", SrcSize: 300},
		},
	}
}

// MatMulArgs builds the submission arguments: multiply two n×n matrices
// split into grid×grid block tasks, each costing blockCost Work units on
// top of the real arithmetic.
func MatMulArgs(n, grid int, blockCost float64) [][]byte {
	return [][]byte{
		mthread.U64(uint64(n)),
		mthread.U64(uint64(grid)),
		mthread.F64(blockCost),
	}
}

// matElem generates matrix entries deterministically so every site and
// the sequential baseline agree without shipping input data around.
func matElem(which, i, j, n int) float64 {
	return float64((i*n+j+which*7)%13) / 3.0
}

// SeqMatMul is the sequential baseline: same matrices, same block
// decomposition, same cost model; returns the checksum of the product.
func SeqMatMul(n, grid int, blockCost float64, work func(float64)) float64 {
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = matElem(0, i, j, n)
			b[i*n+j] = matElem(1, i, j, n)
		}
	}
	var sum float64
	bs := (n + grid - 1) / grid
	for bi := 0; bi < grid; bi++ {
		for bj := 0; bj < grid; bj++ {
			sum += mulBlock(a, b, n, bi*bs, bj*bs, bs)
			work(blockCost)
		}
	}
	return sum
}

// mulBlock computes the checksum of one result block.
func mulBlock(a, b []float64, n, r0, c0, bs int) float64 {
	var sum float64
	for i := r0; i < r0+bs && i < n; i++ {
		for j := c0; j < c0+bs && j < n; j++ {
			var dot float64
			for k := 0; k < n; k++ {
				dot += a[i*n+k] * b[k*n+j]
			}
			sum += dot
		}
	}
	return sum
}

// encodeMatrix packs a float64 matrix into a memory-object payload.
func encodeMatrix(which, n int) []byte {
	vals := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vals[i*n+j] = mthread.ParseU64(mthread.F64(matElem(which, i, j, n)))
		}
	}
	return mthread.U64s(vals)
}

func decodeMatrix(b []byte) []float64 {
	vals := mthread.ParseU64s(b)
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = mthread.ParseF64(mthread.U64(v))
	}
	return out
}

func mmStart(ctx mthread.Context) error {
	n := int(mthread.ParseU64(ctx.Param(0)))
	grid := int(mthread.ParseU64(ctx.Param(1)))
	costB := ctx.Param(2)
	if n <= 0 || grid <= 0 || n > maxMatrixDim || grid > maxMatrixDim {
		ctx.Exit(nil)
		return fmt.Errorf("mm: n and grid must be in 1..%d", maxMatrixDim)
	}

	// Operand matrices become global memory objects; block tasks on any
	// site fetch them through the attraction memory.
	addrA := ctx.Alloc(encodeMatrix(0, n))
	addrB := ctx.Alloc(encodeMatrix(1, n))

	tasks := grid * grid
	reduce := ctx.NewFrame(MMReduce, tasks)
	bs := (n + grid - 1) / grid
	for bi := 0; bi < grid; bi++ {
		for bj := 0; bj < grid; bj++ {
			slot := int32(bi*grid + bj)
			task := ctx.NewFrame(MMBlock, 1, wire.Target{Addr: reduce, Slot: slot})
			payload := append(mthread.Addr(addrA), mthread.Addr(addrB)...)
			payload = append(payload, mthread.U64s([]uint64{
				uint64(n), uint64(bi * bs), uint64(bj * bs), uint64(bs),
				mthread.ParseU64(costB),
			})...)
			if err := ctx.Send(wire.Target{Addr: task, Slot: 0}, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

func mmBlock(ctx mthread.Context) error {
	p := ctx.Param(0)
	if len(p) < 12+12+40 {
		return fmt.Errorf("mm.block: short parameter")
	}
	addrA := mthread.ParseAddr(p[0:12])
	addrB := mthread.ParseAddr(p[12:24])
	vals := mthread.ParseU64s(p[24:])
	n, r0, c0, bs := int(vals[0]), int(vals[1]), int(vals[2]), int(vals[3])
	cost := mthread.ParseF64(mthread.U64(vals[4]))

	rawA, err := ctx.Read(addrA)
	if err != nil {
		return fmt.Errorf("mm.block: read A: %w", err)
	}
	rawB, err := ctx.Read(addrB)
	if err != nil {
		return fmt.Errorf("mm.block: read B: %w", err)
	}
	a, b := decodeMatrix(rawA), decodeMatrix(rawB)

	sum := mulBlock(a, b, n, r0, c0, bs)
	ctx.Work(cost)
	return ctx.Send(ctx.Target(0), mthread.F64(sum))
}

func mmReduce(ctx mthread.Context) error {
	var sum float64
	for i := 0; i < ctx.Arity(); i++ {
		sum += mthread.ParseF64(ctx.Param(i))
	}
	ctx.Output(fmt.Sprintf("matmul: checksum %.4f", sum))
	ctx.Exit(mthread.F64(sum))
	return nil
}

func init() {
	RegisterMatMul(mthread.Global)
}

// RegisterMatMul installs the matmul microthreads into a registry.
func RegisterMatMul(r *mthread.Registry) {
	r.Register("mm.start", mmStart)
	r.Register("mm.block", mmBlock)
	r.Register("mm.reduce", mmReduce)
}
