package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// frameQ is the queue under test with the calling convention the slice
// queue had (frames in, frames out, nil when empty), so the tests below
// read the same against either implementation.
type frameQ struct {
	queue[*wire.Microframe]
}

func newFrameQueue() *frameQ { return &frameQ{} }

func (q *frameQ) push(f *wire.Microframe) {
	q.queue.push(f, f.Prio, time.Time{})
}

func (q *frameQ) pop() *wire.Microframe {
	f, _, _ := q.queue.pop()
	return f
}

func (q *frameQ) popSurrender() *wire.Microframe {
	f, _, _ := q.queue.popSurrender()
	return f
}

func (q *frameQ) dropProgram(prog types.ProgramID) {
	q.remove(func(f *wire.Microframe) bool { return f.Thread.Program == prog })
}

func qframe(local uint64, prio types.Priority) *wire.Microframe {
	f := wire.NewMicroframe(
		types.GlobalAddr{Home: 1, Local: local},
		types.ThreadID{Program: types.MakeProgramID(1, 1), Index: 0}, 0)
	f.Prio = prio
	return f
}

func TestQueueFIFO(t *testing.T) {
	q := newFrameQueue()
	for i := uint64(1); i <= 5; i++ {
		q.push(qframe(i, types.PriorityNormal))
	}
	for i := uint64(1); i <= 5; i++ {
		if got := q.pop(); got.ID.Local != i {
			t.Fatalf("FIFO pop = %v, want %d", got.ID, i)
		}
	}
	if q.pop() != nil {
		t.Fatal("pop from empty queue")
	}
}

// TestQueueCriticalJumpsAhead pins the §3.3 hint on local dispatch: a
// critical frame runs before older ones, and below it the oldest frame
// goes whatever its priority.
func TestQueueCriticalJumpsAhead(t *testing.T) {
	q := newFrameQueue()
	q.push(qframe(1, types.PriorityNormal))
	q.push(qframe(2, types.PriorityCritical))
	q.push(qframe(3, types.PriorityHigh))
	for _, want := range []uint64{2, 1, 3} {
		if got := q.pop(); got.ID.Local != want {
			t.Fatalf("pop = %v, want local %d", got.ID, want)
		}
	}
}

func TestQueueSurrenderNeverGivesCritical(t *testing.T) {
	q := newFrameQueue()
	q.push(qframe(1, types.PriorityCritical))
	if got := q.popSurrender(); got != nil {
		t.Fatalf("surrendered a critical frame: %v", got.ID)
	}
	q.push(qframe(2, types.PriorityLow))
	q.push(qframe(3, types.PriorityNormal))
	q.push(qframe(4, types.PriorityLow))
	for _, want := range []uint64{2, 4, 3} {
		got := q.popSurrender()
		if got == nil || got.ID.Local != want {
			t.Fatalf("surrender must pick the oldest lowest-priority frame (local %d), got %v", want, got)
		}
	}
	if q.len() != 1 {
		t.Fatalf("queue len = %d", q.len())
	}
}

func TestQueueDropProgram(t *testing.T) {
	q := newFrameQueue()
	p2 := types.MakeProgramID(2, 2)
	q.push(qframe(1, 0))
	other := wire.NewMicroframe(types.GlobalAddr{Home: 1, Local: 9},
		types.ThreadID{Program: p2, Index: 0}, 0)
	q.push(other)
	q.dropProgram(types.MakeProgramID(1, 1))
	if q.len() != 1 || q.all()[0].Thread.Program != p2 {
		t.Fatalf("dropProgram kept wrong frames: %v", q.all())
	}
}

// TestQueueConservation property-checks that any sequence of pushes and
// pops conserves frames: nothing is lost, nothing duplicated.
func TestQueueConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		q := newFrameQueue()
		pushed := map[uint64]bool{}
		popped := map[uint64]bool{}
		next := uint64(1)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push with a pseudo-random priority
				prio := types.Priority(int16(op) - 60)
				q.push(qframe(next, prio))
				pushed[next] = true
				next++
			case 2: // dispatch pop
				if fr := q.pop(); fr != nil {
					if popped[fr.ID.Local] {
						return false // duplicate
					}
					popped[fr.ID.Local] = true
				}
			case 3: // surrender pop
				if fr := q.popSurrender(); fr != nil {
					if popped[fr.ID.Local] {
						return false
					}
					popped[fr.ID.Local] = true
				}
			}
		}
		// drain the rest
		for {
			fr := q.pop()
			if fr == nil {
				break
			}
			if popped[fr.ID.Local] {
				return false
			}
			popped[fr.ID.Local] = true
		}
		if len(popped) != len(pushed) {
			return false
		}
		for id := range pushed {
			if !popped[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refQueue is the slice queue the scheduler used before the bucketed
// ring deque, kept as the reference model for the two disciplines that
// remain: one arrival-ordered slice, every pop a linear scan. Its answers
// define the ordering semantics the production queue must reproduce
// exactly.
type refQueue struct {
	frames []*wire.Microframe
}

func (q *refQueue) len() int { return len(q.frames) }

func (q *refQueue) push(f *wire.Microframe) {
	q.frames = append(q.frames, f)
}

func (q *refQueue) pop() *wire.Microframe {
	if len(q.frames) == 0 {
		return nil
	}
	idx := 0
	for i, f := range q.frames {
		if f.Prio >= types.PriorityCritical {
			idx = i
			break
		}
	}
	return q.take(idx)
}

func (q *refQueue) popSurrender() *wire.Microframe {
	if len(q.frames) == 0 {
		return nil
	}
	pick := 0
	for i, f := range q.frames {
		if f.Prio < q.frames[pick].Prio {
			pick = i
		}
	}
	if q.frames[pick].Prio >= types.PriorityCritical {
		return nil
	}
	return q.take(pick)
}

func (q *refQueue) take(i int) *wire.Microframe {
	f := q.frames[i]
	q.frames = append(q.frames[:i], q.frames[i+1:]...)
	return f
}

func (q *refQueue) drain() []*wire.Microframe {
	out := q.frames
	q.frames = nil
	return out
}

func (q *refQueue) all() []*wire.Microframe { return q.frames }

func (q *refQueue) dropProgram(prog types.ProgramID) {
	kept := q.frames[:0]
	for _, f := range q.frames {
		if f.Thread.Program != prog {
			kept = append(kept, f)
		}
	}
	q.frames = kept
}

func sameFrames(a, b []*wire.Microframe) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueueMatchesSliceModel drives the bucketed queue and the slice
// model through the same seeded random op sequences and demands the same
// frame out of every pop, the same arrival-order listings, the same
// length after every step, and the enqueue stamp of every popped frame
// back unchanged. Push weights vary by seed so some runs stay shallow
// (rings wrap in place) and others grow deep (rings double mid-wrap).
func TestQueueMatchesSliceModel(t *testing.T) {
	prios := []types.Priority{types.PriorityLow, types.PriorityNormal, types.PriorityHigh,
		types.PriorityCritical, types.PriorityCritical + 1}
	progs := []types.ProgramID{types.MakeProgramID(1, 1), types.MakeProgramID(1, 2), types.MakeProgramID(2, 1)}

	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q queue[*wire.Microframe]
		ref := &refQueue{}
		stamps := map[*wire.Microframe]time.Time{}
		pushWeight := 35 + int(seed%5)*10 // 35..75 of 100
		// Some seeds only ever use one or two priorities, like real programs.
		usable := prios[:1+rng.Intn(len(prios))]
		next := uint64(0)

		check := func(step int, op string, got *wire.Microframe, at time.Time, want *wire.Microframe) {
			t.Helper()
			if got != want {
				t.Fatalf("seed %d step %d %s: got %v, model says %v", seed, step, op, frameName(got), frameName(want))
			}
			if got != nil && !at.Equal(stamps[got]) {
				t.Fatalf("seed %d step %d %s: stamp %v, pushed with %v", seed, step, op, at, stamps[got])
			}
		}
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < pushWeight:
				next++
				f := wire.NewMicroframe(types.GlobalAddr{Home: 1, Local: next},
					types.ThreadID{Program: progs[rng.Intn(len(progs))]}, 0)
				f.Prio = usable[rng.Intn(len(usable))]
				stamps[f] = time.Unix(0, int64(next))
				q.push(f, f.Prio, stamps[f])
				ref.push(f)
			case r < pushWeight+(100-pushWeight)*6/10:
				got, at, _ := q.pop()
				check(step, "pop", got, at, ref.pop())
			case r < 96:
				got, at, _ := q.popSurrender()
				check(step, "popSurrender", got, at, ref.popSurrender())
			case r < 98:
				prog := progs[rng.Intn(len(progs))]
				q.remove(func(f *wire.Microframe) bool { return f.Thread.Program == prog })
				ref.dropProgram(prog)
			case r < 99:
				if got, want := q.all(), ref.all(); !sameFrames(got, want) {
					t.Fatalf("seed %d step %d all: %d frames vs model %d, or order differs", seed, step, len(got), len(want))
				}
			default:
				if got, want := q.drain(), ref.drain(); !sameFrames(got, want) {
					t.Fatalf("seed %d step %d drain: %d frames vs model %d, or order differs", seed, step, len(got), len(want))
				}
			}
			if q.len() != ref.len() {
				t.Fatalf("seed %d step %d: len %d, model %d", seed, step, q.len(), ref.len())
			}
		}
		if got, want := q.drain(), ref.drain(); !sameFrames(got, want) {
			t.Fatalf("seed %d final drain differs from model", seed)
		}
	}
}

func frameName(f *wire.Microframe) string {
	if f == nil {
		return "nil"
	}
	return fmt.Sprintf("%v(prio %d)", f.ID, f.Prio)
}

// heldSlots counts ring slots, queued or vacated, that still reference a
// frame.
func heldSlots(q *queue[*wire.Microframe]) int {
	held := 0
	for _, b := range q.buckets {
		for _, e := range b.buf {
			if e.item != nil {
				held++
			}
		}
	}
	return held
}

// TestQueueRetainsNoPoppedFrame pins that a vacated slot is zeroed: a
// popped frame must be collectable while the ring lives on. (The slice
// queue's append(q[:i], q[i+1:]...) left a stale duplicate of the last
// element in the tail slot.)
func TestQueueRetainsNoPoppedFrame(t *testing.T) {
	const n = 10000
	fill := func() *queue[*wire.Microframe] {
		q := &queue[*wire.Microframe]{}
		for i := uint64(1); i <= n; i++ {
			f := qframe(i, types.Priority(i%3))
			f.Thread.Program = types.MakeProgramID(1, uint32(i%2))
			q.push(f, f.Prio, time.Time{})
		}
		return q
	}
	type fq = queue[*wire.Microframe]
	takers := []struct {
		name string
		take func(*fq) (*wire.Microframe, time.Time, bool)
	}{
		{"pop", (*fq).pop},
		{"surrender", (*fq).popSurrender},
	}
	for _, tk := range takers {
		q := fill()
		for q.len() > 1 {
			tk.take(q)
			if q.len()%1000 == 1 && heldSlots(q) != q.len() {
				t.Fatalf("%s: %d slots hold a frame with %d queued", tk.name, heldSlots(q), q.len())
			}
		}
		tk.take(q)
		if q.len() != 0 || heldSlots(q) != 0 {
			t.Fatalf("%s: emptied queue has len %d and %d held slots", tk.name, q.len(), heldSlots(q))
		}
	}
	q := fill()
	q.remove(func(f *wire.Microframe) bool { return f.Thread.Program == types.MakeProgramID(1, 0) })
	if q.len() != n/2 || heldSlots(q) != n/2 {
		t.Fatalf("remove: len %d, %d held slots, want %d", q.len(), heldSlots(q), n/2)
	}
}

// TestQueueRingHygiene pins the growth and release rules: an empty queue
// owns nothing, a bucket starts at ringMin and doubles, a burst past
// ringKeep releases its ring once drained while a shallow ring is kept
// for reuse, and buckets of priorities no longer in use are dropped
// without the alternation costing allocations.
func TestQueueRingHygiene(t *testing.T) {
	var q queue[*wire.Microframe]
	if q.buckets != nil {
		t.Fatal("zero queue owns memory")
	}
	f := qframe(1, types.PriorityNormal)
	q.push(f, f.Prio, time.Time{})
	if got := len(q.buckets[0].buf); got != ringMin {
		t.Fatalf("first ring has %d slots, want %d", got, ringMin)
	}
	q.pop()
	if got := len(q.buckets[0].buf); got != ringMin {
		t.Fatalf("shallow ring not kept for reuse: %d slots", got)
	}

	for i := 0; i < 4*ringKeep; i++ {
		q.push(f, f.Prio, time.Time{})
	}
	if got := len(q.buckets[0].buf); got != 4*ringKeep {
		t.Fatalf("ring has %d slots after %d pushes", got, 4*ringKeep)
	}
	for q.len() > 0 {
		q.pop()
	}
	if q.buckets[0].buf != nil {
		t.Fatalf("drained burst still pins %d slots", len(q.buckets[0].buf))
	}

	// Depth-1 traffic that walks through many priorities: at most the
	// live bucket plus the one just emptied, and the ring is passed on.
	allocs := testing.AllocsPerRun(100, func() {
		for p := types.Priority(0); p < 50; p++ {
			q.push(f, p, time.Time{})
			q.pop()
		}
	})
	if len(q.buckets) > 2 {
		t.Fatalf("%d buckets linger for priorities no longer in use", len(q.buckets))
	}
	if allocs != 0 {
		t.Fatalf("alternating priorities at depth 1 allocate %.1f times per run", allocs)
	}
}
