package analysis

import (
	"go/token"
	"strings"
)

// dataflow.go is the shared interprocedural dataflow framework built on
// the call-graph engine (callgraph.go, ipstate.go). It factors the
// propagation machinery the individual fixpoints share so that every
// analyzer answering "can fact X reach function F along synchronous
// calls?" uses one implementation with one witness-chain format:
//
//   - propagateMay: reverse reachability of a may-fact. A function has
//     the fact if it holds locally (seed) or if any followed call site
//     reaches a callee that has it. Each function keeps one witness — the
//     fact's description, its source position, and the callee chain
//     leading to it — so findings can print a concrete explanation, the
//     same shape lockorder uses for its cycle reports. mayBlock
//     (lockhold), and allocfree's may-allocate fixpoint run on this.
//
//   - reachSync: forward reachability from a root set, keeping one
//     call-site witness path per reached function. allocfree uses it to
//     enumerate everything a //sdvm:hotpath function can execute;
//     wiretaint's summary propagation walks call edges the same way.
//
// Soundness caveats are those of the underlying call graph: calls
// through stored function values (EdgeDynamic) are not followed — a
// fact reachable only through one is invisible to propagateMay and
// reachSync, which is why analyzers that must be conservative (such as
// allocfree) report unresolved dynamic calls in reachable code as
// findings in their own right rather than silently skipping them.

// dfChain is one interprocedural witness: the fact ("channel send",
// "make sized by wire value", …), the source position it was observed
// at, and the display names of the callees between the function holding
// the witness and the fact's location (nearest callee first).
type dfChain struct {
	what  string
	pos   token.Pos
	chain []string
}

// chainString renders "f → g → fact" starting from (but not including)
// the function owning the witness.
func (c *dfChain) chainString(leaf string) string {
	parts := append(append([]string{}, c.chain...), leaf)
	return strings.Join(parts, " → ")
}

// propagateMay computes a reverse may-fact fixpoint over the engine's
// call graph. seed returns the local witness for a function (nil if the
// function does not hold the fact directly); follow decides which call
// sites propagate callee facts to their caller (a goroutine launch, for
// instance, never propagates blocking). The result maps each function
// to its witness; functions without the fact are absent.
func (e *engine) propagateMay(seed func(*funcSum) *dfChain, follow func(*callOp) bool) map[*funcSum]*dfChain {
	out := make(map[*funcSum]*dfChain)
	for _, s := range e.sums {
		if c := seed(s); c != nil {
			out[s] = c
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range e.sums {
			if out[s] != nil {
				continue
			}
			for i := range s.calls {
				c := &s.calls[i]
				if !follow(c) {
					continue
				}
				for _, t := range c.callees {
					tc := out[t]
					if tc == nil {
						continue
					}
					chain := make([]string, 0, len(tc.chain)+1)
					chain = append(append(chain, t.name), tc.chain...)
					out[s] = &dfChain{what: tc.what, pos: tc.pos, chain: chain}
					changed = true
					break
				}
				if out[s] != nil {
					break
				}
			}
		}
	}
	return out
}

// reachSync walks forward from roots over the call sites follow accepts,
// returning, per reached function, the display-name path from its root
// (root first, the function itself last). Roots map to a one-element
// path. The first discovered path wins; the walk is breadth-first so the
// witness is a shortest chain.
func (e *engine) reachSync(roots []*funcSum, follow func(*callOp) bool) map[*funcSum][]string {
	paths := make(map[*funcSum][]string, len(roots))
	queue := make([]*funcSum, 0, len(roots))
	for _, r := range roots {
		if _, ok := paths[r]; ok {
			continue
		}
		paths[r] = []string{r.name}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for i := range s.calls {
			c := &s.calls[i]
			if !follow(c) {
				continue
			}
			for _, t := range c.callees {
				if _, ok := paths[t]; ok {
					continue
				}
				p := paths[s]
				paths[t] = append(append(make([]string, 0, len(p)+1), p...), t.name)
				queue = append(queue, t)
			}
		}
	}
	return paths
}

// hotpathDirective is the annotation marking a function whose transitive
// execution must stay allocation-free (allocfree's enforcement
// hook). It sits in the doc comment block of a function declaration:
//
//	//sdvm:hotpath
//	func (m *Message) Encode(w *Writer) { ... }
func hotpathRoots(e *engine) []*funcSum {
	var roots []*funcSum
	for _, s := range e.sums {
		if s.decl == nil || s.decl.Doc == nil {
			continue
		}
		for _, c := range s.decl.Doc.List {
			if strings.HasPrefix(c.Text, "//sdvm:hotpath") {
				roots = append(roots, s)
				break
			}
		}
	}
	return roots
}
