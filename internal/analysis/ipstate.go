package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ipstate.go is the interprocedural layer shared by lockorder and
// lockhold. One pass over every production package (driven by the
// same lockScanner the intraprocedural analyzers use) produces a
// summary per function — blocking operations, canonical mutex
// acquisitions and outgoing call sites, each with the lock state in
// force — and two fixpoints propagate those facts along the call
// graph built by callgraph.go:
//
//   - mayBlock: the function can transitively reach a blocking
//     operation (channel op, blocking select, blocking API call)
//     without an intervening goroutine launch. A witness chain is kept
//     for reporting.
//   - mayEntry: canonical locks held on *some* call path (union), with
//     one witness predecessor per lock for chain reconstruction. This
//     feeds the lock-order graph.
type funcSum struct {
	obj  *types.Func   // nil for function literals
	lit  *ast.FuncLit  // nil for declared functions
	decl *ast.FuncDecl // nil for function literals
	pkg  *Package
	pos  token.Pos
	name string

	blocks   []blockOp
	acquires []acqOp
	calls    []callOp

	mayBlock *blockChain
	mayEntry map[string]entrySrc
}

// blockOp is one directly blocking operation in a function body.
type blockOp struct {
	what string
	pos  token.Pos
}

// acqOp is one canonical mutex acquisition, with the canonical locks
// already held locally when it executes.
type acqOp struct {
	canon  string
	reader bool
	pos    token.Pos
	held   map[string]token.Pos
}

// callOp is one outgoing call site. Exactly one of staticFn / ifaceFn /
// lit is set for resolvable calls; dynamic marks calls through function
// values, which the engine records but cannot resolve.
type callOp struct {
	staticFn    *types.Func
	ifaceFn     *types.Func
	lit         *ast.FuncLit
	dynamic     bool
	isGo        bool // `go f(...)`: f runs outside the caller's lock state
	blockingAPI bool // already classified by blockingCall (lockhold reports it directly)
	pos         token.Pos
	held        heldSet              // printed-key lock state at the call
	canonHeld   map[string]token.Pos // canonical projection of held
	callees     []*funcSum           // filled by engine.link
}

// blockChain is a mayBlock witness: the ultimate blocking operation and
// the callee names leading to it (the generic witness shape from
// dataflow.go).
type blockChain = dfChain

// entrySrc is one witness predecessor for a lock in mayEntry.
type entrySrc struct {
	caller  *funcSum
	callPos token.Pos
	local   bool // the caller held the lock locally at the call site
	lockPos token.Pos
}

type engine struct {
	prog  *Program
	sums  []*funcSum
	byObj map[*types.Func]*funcSum
	byLit map[*ast.FuncLit]*funcSum
}

// engine builds the interprocedural engine once per Program and caches
// it, so every interprocedural analyzer shares one computation.
func (p *Program) engine() *engine {
	if p.eng == nil {
		p.eng = buildEngine(p)
	}
	return p.eng
}

func buildEngine(prog *Program) *engine {
	e := &engine{
		prog:  prog,
		byObj: make(map[*types.Func]*funcSum),
		byLit: make(map[*ast.FuncLit]*funcSum),
	}
	for _, pkg := range prog.Pkgs {
		v := &ipVisitor{eng: e, pkg: pkg, litMode: make(map[*ast.FuncLit]litLaunch)}
		s := &lockScanner{info: pkg.Info, v: v}
		s.scanPackage(pkg)
	}
	e.link()
	e.computeMayBlock()
	e.computeMayEntry()
	return e
}

// litLaunch records how a function literal leaves its creating
// statement; enterFunc consumes it when the scanner descends into the
// literal (always after the creating statement was visited).
type litLaunch int

const (
	litPublished litLaunch = iota // stored or passed: analyzed as a root
	litSync                       // invoked on the spot (call, Once.Do)
	litGo                         // goroutine body
)

// ipVisitor populates funcSums while the lockScanner walks a package.
type ipVisitor struct {
	eng     *engine
	pkg     *Package
	stack   []*funcSum
	litMode map[*ast.FuncLit]litLaunch
}

func (v *ipVisitor) current() *funcSum {
	if len(v.stack) == 0 {
		return nil
	}
	return v.stack[len(v.stack)-1]
}

func (v *ipVisitor) enterFunc(node ast.Node) {
	var sum *funcSum
	switch n := node.(type) {
	case *ast.FuncDecl:
		fn, _ := v.pkg.Info.Defs[n.Name].(*types.Func)
		sum = &funcSum{obj: fn, decl: n, pkg: v.pkg, pos: n.Pos(), name: displayName(fn)}
		if fn != nil {
			v.eng.byObj[fn] = sum
		}
	case *ast.FuncLit:
		pname := "func"
		if p := v.current(); p != nil {
			pname = p.name
		}
		line := v.eng.prog.Fset.Position(n.Pos()).Line
		sum = &funcSum{lit: n, pkg: v.pkg, pos: n.Pos(), name: fmt.Sprintf("%s.func@%d", pname, line)}
		v.eng.byLit[n] = sum
	default:
		sum = &funcSum{pkg: v.pkg, name: "func"}
	}
	v.eng.sums = append(v.eng.sums, sum)
	v.stack = append(v.stack, sum)
}

func (v *ipVisitor) exitFunc(ast.Node) { v.stack = v.stack[:len(v.stack)-1] }

func (v *ipVisitor) visitStmt(s ast.Stmt, held heldSet) {
	cur := v.current()
	if cur == nil {
		return
	}
	switch st := s.(type) {
	case *ast.SendStmt:
		cur.blocks = append(cur.blocks, blockOp{"channel send", st.Arrow})
	case *ast.SelectStmt:
		if !selectHasDefault(st) {
			cur.blocks = append(cur.blocks, blockOp{"select without default", st.Pos()})
		}
		return
	case *ast.GoStmt:
		v.recordCall(st.Call, held, true, false)
		if sel, ok := unwrapFun(st.Call.Fun).(*ast.SelectorExpr); ok {
			v.walkExpr(sel.X, held)
		}
		v.walkExprs(st.Call.Args, held)
		return
	case *ast.DeferStmt:
		v.recordCall(st.Call, held, false, true)
		if sel, ok := unwrapFun(st.Call.Fun).(*ast.SelectorExpr); ok {
			v.walkExpr(sel.X, held)
		}
		v.walkExprs(st.Call.Args, held)
		return
	}
	v.walkExprs(shallowExprs(s), held)
}

func (v *ipVisitor) walkExprs(exprs []ast.Expr, held heldSet) {
	for _, e := range exprs {
		v.walkExpr(e, held)
	}
}

// walkExpr records call sites and channel receives inside one
// expression, staying out of nested literals (the scanner walks those
// itself).
func (v *ipVisitor) walkExpr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	cur := v.current()
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			v.recordCall(n, held, false, false)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				cur.blocks = append(cur.blocks, blockOp{"channel receive", n.Pos()})
			}
		}
		return true
	})
}

func (v *ipVisitor) moduleFunc(fn *types.Func) bool {
	p := fn.Pkg()
	if p == nil {
		return false
	}
	mod := v.eng.prog.Module
	return p.Path() == mod || len(p.Path()) > len(mod) && p.Path()[:len(mod)+1] == mod+"/"
}

// recordCall classifies one call site. isDefer drops the held sets: a
// deferred call runs at return, when the locks held here may already be
// released (and others taken).
func (v *ipVisitor) recordCall(call *ast.CallExpr, held heldSet, isGo, isDefer bool) {
	cur := v.current()
	if cur == nil {
		return
	}
	info := v.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if _, meth, ok := mutexMethod(info, call); ok {
		if meth == "Lock" || meth == "RLock" {
			if canon := canonMutexOf(info, call); canon != "" {
				cur.acquires = append(cur.acquires, acqOp{
					canon: canon, reader: meth == "RLock", pos: call.Pos(), held: canonHeldOf(held),
				})
			}
		}
		return
	}
	// A literal handed to sync.Once.Do runs synchronously right here.
	if fl := onceDoLit(info, call); fl != nil {
		v.litMode[fl] = litSync
		cur.calls = append(cur.calls, callOp{
			pos: fl.Pos(), lit: fl, held: held.clone(), canonHeld: canonHeldOf(held),
		})
	}
	op := callOp{pos: call.Pos(), isGo: isGo}
	if !isDefer && !isGo {
		op.held = held.clone()
		op.canonHeld = canonHeldOf(held)
	}
	if what, ok := blockingCall(info, call); ok {
		cur.blocks = append(cur.blocks, blockOp{what, call.Pos()})
		op.blockingAPI = true
	}
	switch f := unwrapFun(call.Fun).(type) {
	case *ast.FuncLit:
		mode := litSync
		if isGo {
			mode = litGo
		}
		v.litMode[f] = mode
		op.lit = f
	case *ast.Ident:
		if !v.classify(&op, info.Uses[f]) {
			return
		}
	case *ast.SelectorExpr:
		if !v.classify(&op, info.Uses[f.Sel]) {
			return
		}
	default:
		op.dynamic = true
	}
	cur.calls = append(cur.calls, op)
}

// classify resolves the callee object; false means the call needs no
// edge (builtin, conversion, or a leaf outside the module — assumed
// non-blocking unless blockingCall already said otherwise).
func (v *ipVisitor) classify(op *callOp, obj types.Object) bool {
	switch o := obj.(type) {
	case *types.Func:
		// A call to a generic function or to a method of a generic type
		// names an instantiation; summaries are keyed by the declaration.
		o = o.Origin()
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			op.ifaceFn = o
			return true
		}
		if v.moduleFunc(o) {
			op.staticFn = o
			return true
		}
		return false
	case *types.Var:
		op.dynamic = true
		return true
	default:
		return false
	}
}

// computeMayBlock is a reverse reachability fixpoint: a function may
// block if it blocks directly or synchronously calls one that may.
// Goroutine launches and unresolved dynamic calls do not propagate.
// It runs on the generic may-fact propagation from dataflow.go.
func (e *engine) computeMayBlock() {
	res := e.propagateMay(
		func(s *funcSum) *dfChain {
			if len(s.blocks) > 0 {
				b := s.blocks[0]
				return &dfChain{what: b.what, pos: b.pos}
			}
			return nil
		},
		func(c *callOp) bool { return !c.isGo && !c.dynamic },
	)
	for _, s := range e.sums {
		s.mayBlock = res[s]
	}
}

// blockChainString renders a callee's witness chain for a finding.
func blockChainString(t *funcSum) string {
	s := t.name
	for _, step := range t.mayBlock.chain {
		s += " → " + step
	}
	return s + " → " + t.mayBlock.what
}

// computeMayEntry unions, per function, the canonical locks held at any
// visible call site, keeping one witness predecessor per lock.
func (e *engine) computeMayEntry() {
	for _, s := range e.sums {
		s.mayEntry = make(map[string]entrySrc)
	}
	for changed := true; changed; {
		changed = false
		for _, s := range e.sums {
			for i := range s.calls {
				c := &s.calls[i]
				if c.isGo || c.dynamic {
					continue
				}
				for _, t := range c.callees {
					for k, pos := range c.canonHeld {
						if _, ok := t.mayEntry[k]; !ok {
							t.mayEntry[k] = entrySrc{caller: s, callPos: c.pos, local: true, lockPos: pos}
							changed = true
						}
					}
					for k := range s.mayEntry {
						if _, ok := c.canonHeld[k]; ok {
							continue
						}
						if _, ok := t.mayEntry[k]; !ok {
							t.mayEntry[k] = entrySrc{caller: s, callPos: c.pos}
							changed = true
						}
					}
				}
			}
		}
	}
}

// entryChain reconstructs one call chain explaining why lock key may be
// held when s is entered, outermost caller first, ending at s.
func (e *engine) entryChain(s *funcSum, key string) []string {
	chain := []string{s.name}
	seen := map[*funcSum]bool{s: true}
	cur := s
	for {
		src, ok := cur.mayEntry[key]
		if !ok || src.caller == nil || seen[src.caller] {
			break
		}
		chain = append([]string{src.caller.name}, chain...)
		if src.local {
			break
		}
		cur = src.caller
		seen[cur] = true
	}
	return chain
}
