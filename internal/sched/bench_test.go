package sched

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// BenchmarkQueue measures one push plus one pop against a standing
// backlog. The cost must not depend on the depth, and the steady state
// must not allocate (gated in bench.allocs.json). Frames cycle through
// three priorities so both picks have buckets to choose between.
func BenchmarkQueue(b *testing.B) {
	type fq = queue[*wire.Microframe]
	pops := []struct {
		name string
		pop  func(*fq) (*wire.Microframe, time.Time, bool)
	}{
		{"fifo", (*fq).pop},
		{"surrender", (*fq).popSurrender},
	}
	prios := [...]types.Priority{types.PriorityLow, types.PriorityNormal, types.PriorityHigh}
	frames := make([]*wire.Microframe, len(prios))
	for i, p := range prios {
		frames[i] = qframe(uint64(i+1), p)
	}
	for _, p := range pops {
		for _, depth := range []int{1, 100, 10000} {
			b.Run(fmt.Sprintf("%s/depth=%d", p.name, depth), func(b *testing.B) {
				var q fq
				for i := 0; i < depth; i++ {
					f := frames[i%len(frames)]
					q.push(f, f.Prio, time.Time{})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := frames[i%len(frames)]
					q.push(f, f.Prio, time.Time{})
					if _, _, ok := p.pop(&q); !ok {
						b.Fatal("pop from a non-empty queue failed")
					}
				}
			})
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
