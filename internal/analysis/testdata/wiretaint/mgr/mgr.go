// Package mgr seeds wiretaint violations (flagged) next to properly
// validated forms (quiet): every recognized source, sink and validation,
// plus the interprocedural summary propagation.
package mgr

import "fixture/wire"

type bus struct{}

// Send routes a datagram; its SiteID argument is a routing decision.
func (bus) Send(dst wire.SiteID, datagram []byte) {}

// --- make-sizing sinks ---

func decodeUnchecked(r *wire.Reader) []byte {
	n := r.Uint32()
	return make([]byte, n) // want "size make without validation"
}

func decodeGuarded(r *wire.Reader) []byte {
	n := r.Uint32()
	if n > 1024 {
		return nil
	}
	return make([]byte, n) // quiet: guard-and-bail upper bound
}

func decodeLowerBoundOnly(r *wire.Reader) []byte {
	n := int32(r.Uint32())
	if n < 0 {
		return nil
	}
	return make([]byte, n) // want "size make without validation"
}

func decodeBothBounds(r *wire.Reader) []byte {
	n := int32(r.Uint32())
	if n < 0 || n > 1024 {
		return nil
	}
	return make([]byte, n) // quiet: the bail leaves 0 <= n <= 1024
}

func decodeSliceLen(r *wire.Reader) []int {
	n := r.SliceLen(4, "list")
	return make([]int, n) // quiet: SliceLen is the sanctioned validator
}

func decodeMin(r *wire.Reader) []byte {
	n := min(r.Uint32(), 64)
	return make([]byte, n) // quiet: clamped by an untainted bound
}

// --- indexing and slicing sinks ---

func indexUnchecked(r *wire.Reader, table []int) int {
	i := r.Uint32()
	return table[i] // want "index without bounds validation"
}

func indexCompared(r *wire.Reader, table []int) int {
	i := int(r.Uint32())
	if i < len(table) {
		return table[i] // quiet: upper-bound comparison
	}
	return 0
}

func indexAfterCompared(r *wire.Reader, table []int) int {
	i := int(r.Uint32())
	if i < len(table) {
		table[0]++
	}
	return table[i] // want "index without bounds validation"
}

func indexModulo(r *wire.Reader, table []int) int {
	i := int(r.Uint32()) % len(table)
	return table[i] // quiet: clamped by untainted modulus
}

func indexSwitched(r *wire.Reader, table []int) int {
	k := r.Uint32()
	switch k {
	case 0, 1:
		return table[k] // quiet: switch dispatch validates k
	}
	return 0
}

func sliceUnchecked(r *wire.Reader, buf []byte) []byte {
	n := r.Uint32()
	return buf[:n] // want "slice bound without validation"
}

// --- loop bounds ---

func loopUnchecked(p *wire.Payload) int {
	total := 0
	for i := uint32(0); i < p.Count; i++ { // want "loop bound without validation"
		total++
	}
	return total
}

// --- routing sinks ---

func routeUnchecked(b bus, p *wire.Payload) {
	b.Send(p.Home, nil) // want "routing destination without validation"
}

func routeValidated(b bus, p *wire.Payload) {
	if !p.Home.Valid() {
		return
	}
	b.Send(p.Home, nil) // quiet: Valid() membership check
}

func routeRoster(b bus, p *wire.Payload, roster map[wire.SiteID]bool) {
	if !roster[p.Home] {
		return
	}
	b.Send(p.Home, nil) // quiet: roster membership lookup
}

// --- interprocedural summaries ---

// sizedAlloc's parameter reaches a make unvalidated; the summary makes
// tainted call sites the findings, not this function.
func sizedAlloc(n uint32) []byte {
	return make([]byte, n)
}

func callTainted(r *wire.Reader) []byte {
	return sizedAlloc(r.Uint32()) // want "via mgr.sizedAlloc"
}

func callClean(r *wire.Reader) []byte {
	n := r.Uint32()
	if n > 16 {
		return nil
	}
	return sizedAlloc(n) // quiet: validated before the call
}

// readCount returns tainted data; its callers inherit the taint.
func readCount(r *wire.Reader) uint32 {
	return r.Uint32()
}

func callReturnsTaint(r *wire.Reader) []byte {
	return make([]byte, readCount(r)) // want "size make without validation"
}
