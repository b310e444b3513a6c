// Package fixture seeds allocfree violations (flagged) next to the
// allocation-free or suppressed forms (quiet). Only functions reachable
// from a //sdvm:hotpath root may be flagged.
package fixture

import "fmt"

type box struct{ x int }

//sdvm:hotpath
func hotMake(n int) []byte { return make([]byte, n) } // want "make allocates"

//sdvm:hotpath
func hotNew() *int { return new(int) } // want "new allocates"

//sdvm:hotpath
func hotAppend(xs []int) []int { return append(xs, 1) } // want "append may grow"

//sdvm:hotpath
func hotLiterals() {
	_ = []int{1}      // want "slice literal allocates"
	_ = map[int]int{} // want "map literal allocates"
	_ = &box{x: 1}    // want "composite literal escapes"
}

//sdvm:hotpath
func hotClosure() func() {
	return func() {} // want "function literal allocates a closure"
}

//sdvm:hotpath
func hotGo() {
	go coldHelper() // want "goroutine launch allocates"
}

//sdvm:hotpath
func hotString(b []byte) string {
	return string(b) // want "string conversion allocates a copy"
}

var sink interface{}

//sdvm:hotpath
func hotBoxAssign(n int) {
	sink = n // want "boxed into interface"
}

//sdvm:hotpath
func hotBoxReturn(n int) interface{} {
	return n // want "boxed into interface"
}

//sdvm:hotpath
func hotFmt(n int) {
	_ = fmt.Sprintf("%d", n) // want "call to allocating fmt.Sprintf" "argument boxed into interface"
}

// Transitive reach: the allocation three frames below a root is
// reported with the full witness chain.

//sdvm:hotpath
func hotDeep(n int) []byte {
	return viaHelper(n)
}

func viaHelper(n int) []byte {
	return deepAlloc(n)
}

func deepAlloc(n int) []byte {
	return make([]byte, n) // want "fixture.hotDeep → fixture.viaHelper → fixture.deepAlloc"
}

// Generic code: a call names an instantiation, the finding belongs to
// the declaration it was instantiated from.

type ring[T any] struct{ buf []T }

func (r *ring[T]) grow() {
	r.buf = make([]T, 2*len(r.buf)+1) // want "fixture.hotGenericMethod → fixture.ring.push → fixture.ring.grow"
}

func (r *ring[T]) push(v T) {
	if len(r.buf) == 0 {
		r.grow()
	}
	r.buf[0] = v
}

//sdvm:hotpath
func hotGenericMethod(r *ring[*box], p *box) { r.push(p) }

func fill[T any](n int) []T {
	return make([]T, n) // want "fixture.hotGenericFunc → fixture.fill"
}

//sdvm:hotpath
func hotGenericFunc() []int { return fill[int](4) }

// Calls through stored function values cannot be proven
// allocation-free and are findings in their own right.

var stored func()

//sdvm:hotpath
func hotDynamic() {
	stored() // want "dynamic call on hot path"
}

// Pointer-shaped values ride in the interface word without boxing, and
// a nil literal never allocates.

//sdvm:hotpath
func hotNoBox(p *box, m map[int]int) {
	sink = p
	sink = m
	sink = nil
}

// Suppressed: a justified non-growing append.

//sdvm:hotpath
func hotAllowed(xs []int, idx int) []int {
	return append(xs[:idx], xs[idx+1:]...) //sdvmlint:allow allocfree -- removal append shrinks, never grows
}

// Cold code allocates freely: no hot root reaches these.

func coldHelper() {}

func coldAlloc() []byte {
	return make([]byte, 64)
}
