package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// detpath guards the seeded-determinism contract: every adaptive decision
// must be deterministic under a seed, so the chaos CI job can script a
// scenario and byte-compare its report across runs. A function whose
// output must be a pure function of its (seeded) inputs is annotated
// in its doc comment:
//
//	//sdvm:deterministic
//	func Schedule(cfg LinkFaults, seed int64, src, dst uint32, n int) []Decision { ... }
//
// The analyzer walks forward from every annotated root over the
// synchronous call graph (dataflow.go's reachSync) and reports, with a
// shortest root-to-function witness chain, anything reachable that can
// make the result depend on wall-clock time, global PRNG state or
// scheduling order:
//
//   - wall-clock time: time.Now, Since, Until, After, Tick, NewTimer,
//     NewTicker, AfterFunc, Sleep;
//   - global math/rand state: package-level rand.Intn, rand.Int63,
//     rand.Perm, rand.Shuffle, … — shared, unseeded-by-the-caller
//     state. Methods on a *rand.Rand the caller seeds and owns are
//     fine, as are the New/NewSource/NewZipf constructors;
//   - map iteration: a range over a map yields keys in a randomized
//     order, so any output influenced by the iteration sequence
//     differs between runs (sort the keys first);
//   - goroutine launches: two goroutines race, and the interleaving is
//     not a function of the seed;
//   - calls through stored function values: determinism cannot be
//     proven past an unresolved dynamic call, so it is reported in its
//     own right (the same loud-unprovability policy allocfree uses).
//
// Calls out of the module not listed above are assumed deterministic —
// the documented optimism shared with lockhold's blocking table. A
// finding is suppressed only by a justified directive:
// //sdvm:allow detpath -- <reason>; a bare allow does not count.
type detpath struct{}

func newDetpath() Analyzer { return detpath{} }

func (detpath) Name() string { return "detpath" }

const deterministicDirective = "//sdvm:deterministic"

// deterministicRoots returns the functions annotated //sdvm:deterministic.
func deterministicRoots(e *engine) []*funcSum {
	var roots []*funcSum
	for _, s := range e.sums {
		if s.decl == nil || s.decl.Doc == nil {
			continue
		}
		for _, c := range s.decl.Doc.List {
			if strings.HasPrefix(c.Text, deterministicDirective) {
				roots = append(roots, s)
				break
			}
		}
	}
	return roots
}

// wallClockFuncs are the time package entry points that read (or wait
// on) the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true, "Sleep": true,
}

// seededRandCtors construct caller-owned sources; they are the
// deterministic way to use math/rand and are not findings.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func (detpath) Run(prog *Program) []Finding {
	e := prog.engine()
	roots := deterministicRoots(e)
	if len(roots) == 0 {
		return nil
	}
	follow := func(c *callOp) bool { return !c.isGo && !c.dynamic }
	paths := e.reachSync(roots, follow)

	var out []Finding
	seen := make(map[token.Pos]bool)
	report := func(pos token.Pos, msg string) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		out = append(out, Finding{Pos: prog.Fset.Position(pos), Analyzer: "detpath", Message: msg})
	}
	for _, s := range e.sums {
		path, reached := paths[s]
		if !reached {
			continue
		}
		via := strings.Join(path, " → ")
		for _, op := range nondetOps(s) {
			report(op.pos, fmt.Sprintf("%s under deterministic root (%s)", op.what, via))
		}
		for i := range s.calls {
			c := &s.calls[i]
			if c.isGo {
				report(c.pos, fmt.Sprintf(
					"goroutine launched under deterministic root: interleaving is not a function of the seed (%s)", via))
			} else if c.dynamic {
				report(c.pos, fmt.Sprintf(
					"dynamic call under deterministic root cannot be proven deterministic (%s)", via))
			}
		}
	}
	return out
}

// nondetOp is one directly nondeterministic operation in a body.
type nondetOp struct {
	what string
	pos  token.Pos
}

// nondetOps collects a function's direct nondeterminism sources,
// excluding nested literals (each literal is its own call-graph node
// and is reported when itself reachable).
func nondetOps(s *funcSum) []nondetOp {
	body := funcBody(s)
	if body == nil {
		return nil
	}
	info := s.pkg.Info
	var ops []nondetOp
	ast.Inspect(body, func(n ast.Node) bool {
		switch nd := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if t := info.TypeOf(nd.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ops = append(ops, nondetOp{
						what: "map iteration order influences the result", pos: nd.Pos(),
					})
				}
			}
		case *ast.CallExpr:
			callee := calleeFunc(info, nd)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			sig, _ := callee.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil {
				return true // methods (e.g. *rand.Rand, time.Time) are caller-owned state
			}
			switch callee.Pkg().Path() {
			case "time":
				if wallClockFuncs[callee.Name()] {
					ops = append(ops, nondetOp{
						what: "wall-clock time." + callee.Name(), pos: nd.Pos(),
					})
				}
			case "math/rand", "math/rand/v2":
				if !seededRandCtors[callee.Name()] {
					ops = append(ops, nondetOp{
						what: "global math/rand." + callee.Name() + " (shared unseeded source)", pos: nd.Pos(),
					})
				}
			}
		}
		return true
	})
	return ops
}
