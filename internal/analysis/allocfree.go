package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocfree enforces the allocation-free hot path: a function annotated
//
//	//sdvm:hotpath
//
// must not allocate, transitively. The analyzer walks forward from every
// annotated declaration over the synchronous call graph (dataflow.go's
// reachSync) and reports each allocation site any hot path can execute:
//
//   - make / new
//   - append (may grow its backing array)
//   - &composite literals, slice and map literals
//   - string ↔ []byte / []rune conversions
//   - interface boxing: a concrete, non-pointer-shaped value converted
//     to an interface type explicitly, at a call argument, a return, or
//     an assignment (pointer-shaped values — pointers, channels, maps,
//     funcs — fit the interface data word and do not allocate)
//   - function literals (closure allocation) and goroutine launches
//   - calls into a table of known-allocating standard-library functions
//     (fmt, errors, strings, sort, time.NewTimer, binary.Append*, …)
//
// Calls through stored function values cannot be resolved by the call
// graph, so a dynamic call reachable from a hot path is itself reported:
// allocation-freedom cannot be proven past it. Unlisted calls out of the
// module and interface calls with no module implementation are assumed
// allocation-free — the analyzer's documented optimism, mirroring
// lockhold's blocking-call table.
//
// Every finding carries the shortest root-to-site witness chain, so one
// suppression (//sdvmlint:allow or a justified baseline entry) covers
// one allocation site regardless of how many hot paths reach it.
type allocfree struct{}

func newAllocfree() Analyzer { return allocfree{} }

func (allocfree) Name() string { return "allocfree" }

// allocOp is one local allocation in a function body.
type allocOp struct {
	what string
	pos  token.Pos
}

func (allocfree) Run(prog *Program) []Finding {
	e := prog.engine()
	roots := hotpathRoots(e)
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
		out = append(out, Finding{Pos: prog.Fset.Position(pos), Analyzer: "allocfree", Message: msg})
	}
	for _, s := range e.sums {
		path, reached := paths[s]
		if !reached {
			continue
		}
		via := strings.Join(path, " → ")
		for _, op := range localAllocs(s) {
			report(op.pos, fmt.Sprintf("hot-path allocation: %s (%s)", op.what, via))
		}
		for i := range s.calls {
			c := &s.calls[i]
			if c.dynamic && !c.isGo {
				report(c.pos, fmt.Sprintf("dynamic call on hot path cannot be proven allocation-free (%s)", via))
			}
		}
	}
	return out
}

// localAllocs collects the allocation operations in one function body,
// excluding nested function literals (each is its own call-graph node;
// the literal itself is the enclosing function's closure allocation).
func localAllocs(s *funcSum) []allocOp {
	body := funcBody(s)
	if body == nil {
		return nil
	}
	info := s.pkg.Info
	var ops []allocOp
	add := func(pos token.Pos, what string) { ops = append(ops, allocOp{what: what, pos: pos}) }

	// &T{...} is one heap allocation; remember the inner literal so the
	// composite-literal case below does not double-report it.
	addressed := make(map[*ast.CompositeLit]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			add(n.Pos(), "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			add(n.Pos(), "goroutine launch allocates")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := n.X.(*ast.CompositeLit); ok {
					addressed[cl] = true
					add(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if addressed[n] {
				return true
			}
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				add(n.Pos(), "slice literal allocates")
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			}
		case *ast.ReturnStmt:
			sig := funcSig(s)
			if sig == nil {
				break
			}
			res := sig.Results()
			if len(n.Results) == res.Len() {
				for i, r := range n.Results {
					if boxes(res.At(i).Type(), info.TypeOf(r), r) {
						add(r.Pos(), "return value boxed into interface")
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, rhs := range n.Rhs {
				if boxes(info.TypeOf(n.Lhs[i]), info.TypeOf(rhs), rhs) {
					add(rhs.Pos(), "value boxed into interface on assignment")
				}
			}
		case *ast.CallExpr:
			callAllocs(info, n, add)
		}
		return true
	})
	return ops
}

// callAllocs classifies one call expression: conversions, builtins,
// known-allocating leaves, and interface boxing of arguments.
func callAllocs(info *types.Info, call *ast.CallExpr, add func(token.Pos, string)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion. String/byte-slice conversions copy; conversions to
		// interface types box.
		dst := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			if stringConv(dst, src) {
				add(call.Pos(), "string conversion allocates a copy")
			} else if boxes(dst, src, call.Args[0]) {
				add(call.Pos(), "conversion to interface boxes the value")
			}
		}
		return
	}
	switch fn := unwrapFun(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fn].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				add(call.Pos(), "append may grow the backing array")
			}
			return
		}
	}
	var callee *types.Func
	switch fn := unwrapFun(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fn].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fn.Sel].(*types.Func)
	}
	if callee != nil && callee.Pkg() != nil {
		key := callee.Pkg().Path() + "." + callee.Name()
		for _, pfx := range allocLeaves {
			if strings.HasPrefix(key, pfx) {
				add(call.Pos(), "call to allocating "+pkgBase(callee.Pkg().Path())+"."+callee.Name())
				break
			}
		}
	}
	// Interface boxing of arguments.
	sig := callSig(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pt, info.TypeOf(arg), arg) {
			add(arg.Pos(), "argument boxed into interface")
		}
	}
}

// callSig returns the signature of a non-builtin, non-conversion call,
// or nil.
func callSig(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// boxes reports whether storing a src-typed value into dst allocates:
// dst is an interface, src is concrete, and src is not pointer-shaped
// (a pointer, channel, map, func or unsafe.Pointer rides in the
// interface data word for free).
func boxes(dst, src types.Type, srcExpr ast.Expr) bool {
	if dst == nil || src == nil || !types.IsInterface(dst) || types.IsInterface(src) {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok {
		if b.Kind() == types.UntypedNil || b.Kind() == types.UnsafePointer {
			return false
		}
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	// Untyped constants box, but a nil literal does not.
	if id, ok := srcExpr.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

// stringConv reports whether the conversion dst(src) is one of the
// copying string ↔ []byte / []rune conversions.
func stringConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}

// funcBody returns the body of a summarized function, nil if absent.
func funcBody(s *funcSum) *ast.BlockStmt {
	switch {
	case s.decl != nil:
		return s.decl.Body
	case s.lit != nil:
		return s.lit.Body
	}
	return nil
}

// funcSig returns the go/types signature of a summarized function.
func funcSig(s *funcSum) *types.Signature {
	switch {
	case s.obj != nil:
		sig, _ := s.obj.Type().(*types.Signature)
		return sig
	case s.lit != nil:
		sig, _ := s.pkg.Info.TypeOf(s.lit).(*types.Signature)
		return sig
	}
	return nil
}

// allocLeaves lists standard-library calls known to allocate, matched by
// package-path-qualified name prefix. Unlisted leaves are assumed
// allocation-free — the same optimistic-table approach lockhold takes
// for blocking calls.
var allocLeaves = []string{
	"fmt.",
	"errors.",
	"sort.",
	"strings.",
	"bytes.",
	"strconv.Format",
	"strconv.Itoa",
	"strconv.Quote",
	"strconv.Append",
	"encoding/json.",
	"encoding/binary.Append",
	"io.ReadAll",
	"net.",
	"os.",
	"reflect.",
	"regexp.",
	"time.NewTimer",
	"time.NewTicker",
	"time.After",
	"time.AfterFunc",
	"runtime/debug.",
}
