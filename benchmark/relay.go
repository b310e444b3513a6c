package main

import (
	"fmt"
	"math/rand"

	"repro/internal/daemon"
	"repro/internal/mthread"
	"repro/internal/wire"
)

// The relay application moves byte payloads of mixed sizes through the
// cluster: every token is a payload forwarded through a chain of hop
// microthreads, each of which allocates the next hop's frame and sends it
// the payload, so parameters of 64 B and 64 KiB share the same
// connections. A reducer sums one checksum per token.

// Thread indices of the relay application.
const (
	relayStart uint32 = iota
	relayHop
	relayReduce
)

// Payload size classes and their exact shares of a token set. The order
// of the classes over the tokens is drawn from the seed; the shares are
// fixed so that every seed moves the same number of bytes.
var relayClasses = []struct {
	size  int
	share float64
}{
	{64, 0.70},
	{4 << 10, 0.25},
	{64 << 10, 0.05},
}

// relayNames lists the registered microthreads of the application.
var relayNames = []string{"bench.relay.start", "bench.relay.hop", "bench.relay.reduce"}

// init registers the relay microthreads, and then a traced wrapper for
// every microthread any workload runs.
func init() {
	mthread.Global.Register(relayNames[relayStart], relayStartFn)
	mthread.Global.Register(relayNames[relayHop], relayHopFn)
	mthread.Global.Register(relayNames[relayReduce], relayReduceFn)
	wrapped := make(map[string]bool)
	for _, w := range allWorkloads {
		for _, name := range w.threads {
			if !wrapped[name] {
				wrapped[name] = true
				registerTraced(name)
			}
		}
	}
}

// relayToken is one generated input: a payload size and the byte pattern
// filling it.
type relayToken struct {
	size int
	fill uint32
}

// relayTokens draws n tokens from rng with the class shares above.
func relayTokens(rng *rand.Rand, n int) []relayToken {
	toks := make([]relayToken, 0, n)
	for ci, c := range relayClasses {
		k := int(c.share*float64(n) + 0.5)
		if ci == len(relayClasses)-1 || len(toks)+k > n {
			k = n - len(toks)
		}
		for i := 0; i < k; i++ {
			toks = append(toks, relayToken{size: c.size})
		}
	}
	rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
	for i := range toks {
		toks[i].fill = rng.Uint32()
	}
	return toks
}

// relayArgs encodes the generated inputs as submission arguments.
func relayArgs(toks []relayToken, stages int) [][]byte {
	spec := make([]uint64, len(toks))
	for i, t := range toks {
		spec[i] = uint64(t.size)<<32 | uint64(t.fill)
	}
	return [][]byte{mthread.U64(uint64(stages)), mthread.U64s(spec)}
}

// relayPayload builds a token's payload: the fill word repeated.
func relayPayload(size int, fill uint32) []byte {
	b := make([]byte, size)
	for i := 0; i+4 <= size; i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = byte(fill), byte(fill>>8), byte(fill>>16), byte(fill>>24)
	}
	return b
}

// relayProbe is what every hop adds to its token's checksum: cheap enough
// that the hops stay bound by moving the bytes, not by reading them, yet
// sensitive to a truncated or displaced payload.
func relayProbe(p []byte) uint64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	return uint64(n) + uint64(p[0]) + uint64(p[n/2])<<8 + uint64(p[n-1])<<16
}

// relayExpected is the reducer's result computed from the inputs alone.
func relayExpected(toks []relayToken, stages int) uint64 {
	var sum uint64
	for _, t := range toks {
		sum += uint64(stages) * relayProbe(relayPayload(t.size, t.fill))
	}
	return sum
}

// relayPayloadBytes is the hop payload volume of one program.
func relayPayloadBytes(toks []relayToken, stages int) int64 {
	var n int64
	for _, t := range toks {
		n += int64(t.size) * int64(stages)
	}
	return n
}

// relayApp describes the application; traced selects the wrapped
// registrations.
func relayApp(traced bool) daemon.App {
	return tracedApp(daemon.App{
		Name: "bench-relay",
		Threads: []daemon.AppThread{
			{Index: relayStart, FuncName: relayNames[relayStart], SrcSize: 500},
			{Index: relayHop, FuncName: relayNames[relayHop], SrcSize: 400},
			{Index: relayReduce, FuncName: relayNames[relayReduce], SrcSize: 200},
		},
	}, traced)
}

// relayStartFn launches one hop chain per token, all feeding one reducer.
func relayStartFn(ctx mthread.Context) error {
	stages := mthread.ParseU64(ctx.Param(0))
	spec := mthread.ParseU64s(ctx.Param(1))
	if stages == 0 || len(spec) == 0 {
		ctx.Exit(nil)
		return fmt.Errorf("relay: stages and tokens must be positive")
	}
	reduce := ctx.NewFrame(relayReduce, len(spec))
	for i, s := range spec {
		hop := ctx.NewFrame(relayHop, 2, wire.Target{Addr: reduce, Slot: int32(i)})
		if err := ctx.Send(wire.Target{Addr: hop, Slot: 0}, mthread.U64s([]uint64{stages, 0})); err != nil {
			return err
		}
		payload := relayPayload(int(s>>32), uint32(s))
		if err := ctx.Send(wire.Target{Addr: hop, Slot: 1}, payload); err != nil {
			return err
		}
	}
	return nil
}

// relayHopFn forwards its payload to a freshly allocated next hop, or
// reports the token's checksum to the reducer after the last stage.
func relayHopFn(ctx mthread.Context) error {
	head := mthread.ParseU64s(ctx.Param(0))
	if len(head) < 2 {
		return fmt.Errorf("relay.hop: short header")
	}
	payload := ctx.Param(1)
	left, sum := head[0]-1, head[1]+relayProbe(payload)
	if left == 0 {
		return ctx.Send(ctx.Target(0), mthread.U64(sum))
	}
	next := ctx.NewFrame(relayHop, 2, ctx.Target(0))
	if err := ctx.Send(wire.Target{Addr: next, Slot: 0}, mthread.U64s([]uint64{left, sum})); err != nil {
		return err
	}
	return ctx.Send(wire.Target{Addr: next, Slot: 1}, payload)
}

func relayReduceFn(ctx mthread.Context) error {
	var sum uint64
	for i := 0; i < ctx.Arity(); i++ {
		sum += mthread.ParseU64(ctx.Param(i))
	}
	ctx.Exit(mthread.U64(sum))
	return nil
}
