package sched

import (
	"time"

	"repro/internal/types"
)

// queue is the one container behind both scheduler queues (executable
// frames awaiting code, ready frames awaiting a processor). It keeps one
// ring buffer per distinct priority in use, sorted by ascending priority;
// programs use a handful of priorities, so every operation below costs
// O(#priorities), independent of the backlog. Each entry carries a
// queue-wide arrival sequence number: within a bucket entries sit in
// arrival order, and comparing bucket fronts by seq recovers the exact
// global oldest across buckets — the same answer a scan of one
// arrival-ordered slice would give. One queue serves two disciplines:
// pop is local dispatch (critical frames first, then FIFO), popSurrender
// picks the frame a help reply gives away (oldest of the lowest
// priority, never a critical one).
//
// The zero value is an empty queue that owns no memory. It is not safe
// for concurrent use; the Manager's mutex guards it.
type queue[T any] struct {
	buckets []bucket[T] // ascending prio; may hold empty buckets (see bucketFor)
	seq     uint64
	n       int
}

// entry is one queued item with its arrival order and the time the frame
// first became executable on this site (zero while metrics are off); the
// stamp rides along from the executable to the ready queue and feeds the
// dispatch-latency histogram.
type entry[T any] struct {
	seq  uint64
	at   time.Time
	item T
}

// bucket is a growable ring of the entries of one priority. len(buf) is
// zero or a power of two.
type bucket[T any] struct {
	prio types.Priority
	buf  []entry[T]
	head int
	n    int
}

const (
	// ringMin is a bucket's first capacity; it doubles from there.
	ringMin = 8
	// ringKeep is the largest ring an emptied bucket keeps for reuse. A
	// burst that grew past it hands the array back to the collector, so
	// one deep recursion does not pin megabytes for the daemon's lifetime.
	ringKeep = 1024
)

func (b *bucket[T]) at(i int) *entry[T] { return &b.buf[(b.head+i)&(len(b.buf)-1)] }

func (b *bucket[T]) front() *entry[T] { return &b.buf[b.head] }

func (b *bucket[T]) grow() {
	size := 2 * len(b.buf)
	if size < ringMin {
		size = ringMin
	}
	buf := make([]entry[T], size) //sdvmlint:allow allocfree -- doubling: amortized over the pushes that filled the ring
	for i := 0; i < b.n; i++ {
		buf[i] = *b.at(i)
	}
	b.buf, b.head = buf, 0
}

func (b *bucket[T]) pushBack(e entry[T]) {
	if b.n == len(b.buf) {
		b.grow()
	}
	*b.at(b.n) = e
	b.n++
}

// take removes the front entry. The vacated slot is zeroed so the ring
// does not keep the frame alive.
func (b *bucket[T]) take() entry[T] {
	slot := b.front()
	b.head = (b.head + 1) & (len(b.buf) - 1)
	e := *slot
	*slot = entry[T]{}
	b.n--
	b.releaseIfEmpty()
	return e
}

// releaseIfEmpty hands a ring that grew past ringKeep back to the
// collector once nothing is queued in it.
func (b *bucket[T]) releaseIfEmpty() {
	if b.n == 0 && len(b.buf) > ringKeep {
		b.buf = nil
	}
}

func (q *queue[T]) len() int { return q.n }

// bucketFor returns the bucket of prio, inserting it in sorted position
// if absent. An insertion first drops the buckets that have emptied —
// their priorities are no longer in use — and hands one of their rings to
// the newcomer, so a shallow queue alternating between priorities neither
// accumulates buckets nor allocates.
func (q *queue[T]) bucketFor(prio types.Priority) *bucket[T] {
	for i := range q.buckets {
		if q.buckets[i].prio == prio {
			return &q.buckets[i]
		}
	}
	var spare []entry[T]
	live := q.buckets[:0]
	for _, b := range q.buckets {
		if b.n > 0 {
			live = append(live, b) //sdvmlint:allow allocfree -- compacts in place, never grows
		} else if spare == nil {
			spare = b.buf
		}
	}
	clear(q.buckets[len(live):]) // let go of the dropped buckets' rings
	at := 0
	for at < len(live) && live[at].prio < prio {
		at++
	}
	live = append(live, bucket[T]{}) //sdvmlint:allow allocfree -- grows once per distinct priority in use
	copy(live[at+1:], live[at:])
	live[at] = bucket[T]{prio: prio, buf: spare}
	q.buckets = live
	return &q.buckets[at]
}

// push appends an item with the given priority; at is handed back by the
// pop that removes it.
//
//sdvm:hotpath
func (q *queue[T]) push(item T, prio types.Priority, at time.Time) {
	q.seq++
	q.n++
	q.bucketFor(prio).pushBack(entry[T]{seq: q.seq, at: at, item: item})
}

// pop removes the item local dispatch runs next; ok is false when empty.
// Critical-path frames (paper §3.3 scheduling hints) dispatch first,
// oldest first; with no critical frame queued the oldest entry of any
// priority goes (FIFO, "to avoid starving of microframes").
//
//sdvm:hotpath
func (q *queue[T]) pop() (item T, at time.Time, ok bool) {
	var pick *bucket[T]
	for i := len(q.buckets) - 1; i >= 0; i-- {
		b := &q.buckets[i]
		if b.n == 0 {
			continue
		}
		if pick != nil && pick.prio >= types.PriorityCritical && b.prio < types.PriorityCritical {
			break // the scan descends: every critical bucket has been seen
		}
		if pick == nil || b.front().seq < pick.front().seq {
			pick = b
		}
	}
	if pick == nil {
		return item, at, false
	}
	return q.takeFrom(pick)
}

// popSurrender removes the item best suited to give away to a peer: the
// oldest of the *lowest*-priority ones, and never a critical-path frame —
// shipping the frame that unfolds the next stage of the program detaches
// every peer's knowledge of where work spawns.
//
//sdvm:hotpath
func (q *queue[T]) popSurrender() (item T, at time.Time, ok bool) {
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.n == 0 {
			continue
		}
		if b.prio >= types.PriorityCritical {
			break
		}
		return q.takeFrom(b)
	}
	return item, at, false
}

func (q *queue[T]) takeFrom(b *bucket[T]) (T, time.Time, bool) {
	e := b.take()
	q.n--
	return e.item, e.at, true
}

// all returns the queued items in arrival order without removing them:
// a seq-merge of the buckets.
func (q *queue[T]) all() []T {
	out := make([]T, 0, q.n)
	next := make([]int, len(q.buckets))
	for len(out) < q.n {
		pick := -1
		for i := range q.buckets {
			b := &q.buckets[i]
			if next[i] < b.n && (pick < 0 || b.at(next[i]).seq < q.buckets[pick].at(next[pick]).seq) {
				pick = i
			}
		}
		out = append(out, q.buckets[pick].at(next[pick]).item)
		next[pick]++
	}
	return out
}

// drain removes and returns everything, oldest first.
func (q *queue[T]) drain() []T {
	out := q.all()
	*q = queue[T]{}
	return out
}

// remove deletes every item match reports, keeping the rest in order. It
// walks the whole queue: its one caller drops a terminated program's
// frames, which happens once per program, not once per frame.
func (q *queue[T]) remove(match func(T) bool) {
	for i := range q.buckets {
		b := &q.buckets[i]
		kept := 0
		for j := 0; j < b.n; j++ {
			if e := *b.at(j); !match(e.item) {
				*b.at(kept) = e
				kept++
			}
		}
		for j := kept; j < b.n; j++ {
			*b.at(j) = entry[T]{}
		}
		q.n -= b.n - kept
		b.n = kept
		b.releaseIfEmpty()
	}
}
