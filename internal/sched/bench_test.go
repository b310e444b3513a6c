package sched

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/race"
	"repro/internal/types"
	"repro/internal/wire"
)

type fq = queue[*wire.Microframe]

// queuePops are the two picks BenchmarkQueue and TestAllocs measure.
var queuePops = []struct {
	name string
	pop  func(*fq) (*wire.Microframe, time.Time, bool)
}{
	{"fifo", (*fq).pop},
	{"surrender", (*fq).popSurrender},
}

var queueDepths = []int{1, 100, 10000}

// queueOp is one BenchmarkQueue iteration: one push plus one pop
// against a standing backlog of depth frames. Frames cycle through
// three priorities so both picks have buckets to choose between.
func queueOp(tb testing.TB, pop func(*fq) (*wire.Microframe, time.Time, bool), depth int) func() {
	prios := [...]types.Priority{types.PriorityLow, types.PriorityNormal, types.PriorityHigh}
	frames := make([]*wire.Microframe, len(prios))
	for i, p := range prios {
		frames[i] = qframe(uint64(i+1), p)
	}
	var q fq
	for i := 0; i < depth; i++ {
		f := frames[i%len(frames)]
		q.push(f, f.Prio, time.Time{})
	}
	i := 0
	return func() {
		f := frames[i%len(frames)]
		i++
		q.push(f, f.Prio, time.Time{})
		if _, _, ok := pop(&q); !ok {
			tb.Fatal("pop from a non-empty queue failed")
		}
	}
}

// BenchmarkQueue measures queueOp. The cost must not depend on the
// depth, and TestAllocs holds the steady state to zero allocations.
func BenchmarkQueue(b *testing.B) {
	for _, p := range queuePops {
		for _, depth := range queueDepths {
			b.Run(fmt.Sprintf("%s/depth=%d", p.name, depth), func(b *testing.B) {
				op := queueOp(b, p.pop, depth)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
	}
}

// TestAllocs is the queue's allocation gate: a push plus a pop must not
// allocate at any depth, under either pick.
func TestAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gates run without the race detector")
	}
	for _, p := range queuePops {
		for _, depth := range queueDepths {
			if got := testing.AllocsPerRun(1000, queueOp(t, p.pop, depth)); got != 0 {
				t.Errorf("Queue/%s/depth=%d: %v allocs/op, want 0", p.name, depth, got)
			}
		}
	}
}

// BenchmarkEnqueueDispatch measures a frame's whole trip through a
// stand-alone scheduling manager — Enqueue, the resolve loop's hop from
// the executable to the ready queue, TryGetWork — behind a standing
// backlog, the way benchmark/probes.go's sched probe does.
func BenchmarkEnqueueDispatch(b *testing.B) {
	for _, depth := range []int{1, 10000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			_, mgrs := schedCluster(b, 1, Config{})
			m := mgrs[0]
			f := frameFor(1, 1, types.PriorityNormal)
			for i := 0; i < depth; i++ {
				m.Enqueue(f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Enqueue(f)
				for {
					if _, ok := m.TryGetWork(); ok {
						break
					}
					runtime.Gosched()
				}
			}
		})
	}
}
