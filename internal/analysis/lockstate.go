package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockstate.go is the conservative lock tracker behind lockhold and
// the interprocedural engine (ipstate.go). It walks a function body in source order and maintains
// the set of sync.Mutex/RWMutex values known to be held at each
// statement, keyed by the printed receiver expression ("m.mu"). Control
// flow is approximated: branches are scanned with a copy of the state and
// merged by intersection (a lock counts as held after an if/switch/select
// only if every surviving path holds it); branches that end in
// return/break/continue don't contribute to the merge. A deferred Unlock
// leaves the mutex held to the end of the function, which is exactly what
// lockhold wants to see. Function literals are scanned as fresh
// functions: a goroutine does not inherit its creator's locks.

// heldLock records one held mutex.
type heldLock struct {
	at     token.Pos // position of the Lock call
	reader bool      // RLock rather than Lock
	canon  string    // canonical program-wide identity ("" for locals)
}

type heldSet map[string]heldLock

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// intersect keeps only locks held in both sets.
func intersect(a, b heldSet) heldSet {
	out := make(heldSet)
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

// lockVisitor observes every scanned statement with the lock state in
// force when the statement begins executing.
type lockVisitor interface {
	// visitStmt sees each leaf statement (and the header of each control
	// statement) together with the current held set. Implementations must
	// inspect only the statement's own expressions — nested blocks and
	// function literals are walked by the engine itself.
	visitStmt(s ast.Stmt, held heldSet)
	// enterFunc/exitFunc bracket the scan of one function (FuncDecl or
	// FuncLit); literals nested in a function are scanned inline, so
	// visitors needing the innermost function must keep a stack.
	enterFunc(node ast.Node)
	exitFunc(node ast.Node)
}

// lockScanner drives the walk for one package.
type lockScanner struct {
	info *types.Info
	v    lockVisitor
}

// scanPackage walks every function declaration in the package.
func (s *lockScanner) scanPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s.scanFunc(fd, fd.Body)
		}
	}
}

func (s *lockScanner) scanFunc(node ast.Node, body *ast.BlockStmt) {
	s.scanFuncEntry(node, body, make(heldSet))
}

// scanFuncEntry scans one function with an explicit entry lock state.
func (s *lockScanner) scanFuncEntry(node ast.Node, body *ast.BlockStmt, held heldSet) {
	s.v.enterFunc(node)
	s.scanStmts(body.List, held)
	s.v.exitFunc(node)
}

// scanStmts walks stmts updating held in place; it reports whether the
// block definitely terminates (return / break / continue / goto).
func (s *lockScanner) scanStmts(stmts []ast.Stmt, held heldSet) bool {
	for _, stmt := range stmts {
		if s.scanStmt(stmt, held) {
			return true
		}
	}
	return false
}

func (s *lockScanner) scanStmt(stmt ast.Stmt, held heldSet) bool {
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		return s.scanStmts(st.List, held)
	case *ast.LabeledStmt:
		return s.scanStmt(st.Stmt, held)
	case *ast.IfStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		s.v.visitStmt(st, held)
		s.scanNestedLits(st.Cond, held)
		thenHeld := held.clone()
		thenTerm := s.scanStmts(st.Body.List, thenHeld)
		elseHeld := held.clone()
		elseTerm := false
		if st.Else != nil {
			elseTerm = s.scanStmt(st.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(held, elseHeld)
		case elseTerm:
			replace(held, thenHeld)
		default:
			replace(held, intersect(thenHeld, elseHeld))
		}
		return false
	case *ast.ForStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		s.v.visitStmt(st, held)
		body := held.clone()
		s.scanStmts(st.Body.List, body)
		if st.Post != nil {
			s.scanStmt(st.Post, body)
		}
		replace(held, intersect(held, body))
		return false
	case *ast.RangeStmt:
		s.v.visitStmt(st, held)
		s.scanNestedLits(st.X, held)
		body := held.clone()
		s.scanStmts(st.Body.List, body)
		replace(held, intersect(held, body))
		return false
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		s.v.visitStmt(st, held)
		s.scanCases(st.Body.List, held, false)
		return false
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		s.v.visitStmt(st, held)
		s.scanCases(st.Body.List, held, false)
		return false
	case *ast.SelectStmt:
		s.v.visitStmt(st, held)
		// A select without default still always runs one branch.
		s.scanCases(st.Body.List, held, true)
		return false
	case *ast.GoStmt:
		s.v.visitStmt(st, held)
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			// A goroutine body runs under its own (empty) lock state.
			s.scanFuncEntry(fl, fl.Body, make(heldSet))
		}
		for _, arg := range st.Call.Args {
			s.scanNestedLits(arg, held)
		}
		return false
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end; do not
		// clear it. Other defers are visited like calls.
		if _, meth, ok := mutexMethod(s.info, st.Call); !ok || !isUnlockMethod(meth) {
			s.v.visitStmt(st, held)
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			// The lock state at the deferred run is unknowable here;
			// scan conservatively with an empty held set.
			s.scanFuncEntry(fl, fl.Body, make(heldSet))
		}
		for _, arg := range st.Call.Args {
			s.scanNestedLits(arg, held)
		}
		return false
	case *ast.ReturnStmt:
		s.v.visitStmt(st, held)
		for _, r := range st.Results {
			s.scanNestedLits(r, held)
		}
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE || st.Tok == token.GOTO
	default:
		s.v.visitStmt(stmt, held)
		s.applyTransitions(stmt, held)
		s.scanNestedLits(stmt, held)
		return false
	}
}

// scanCases merges the branches of a switch/select body into held.
// alwaysRuns says some branch always executes even without a default
// clause (true for select, which blocks until a case fires).
func (s *lockScanner) scanCases(clauses []ast.Stmt, held heldSet, alwaysRuns bool) {
	var merged heldSet
	haveMerged := false
	sawDefault := false
	for _, c := range clauses {
		var comm ast.Stmt
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			body = cc.Body
			if cc.List == nil {
				sawDefault = true
			}
		case *ast.CommClause:
			body = cc.Body
			comm = cc.Comm
			if comm == nil {
				sawDefault = true
			}
		default:
			continue
		}
		branch := held.clone()
		if comm != nil {
			// The comm op is not visited as a statement: whether it
			// blocks is a property of the whole select (a default clause
			// makes it non-blocking), which visitors judge from the
			// SelectStmt itself. Lock transitions in it still count.
			s.applyTransitions(comm, branch)
		}
		if s.scanStmts(body, branch) {
			continue // terminating branch: no contribution
		}
		if !haveMerged {
			merged = branch
			haveMerged = true
		} else {
			merged = intersect(merged, branch)
		}
	}
	if !haveMerged {
		return // every branch terminated (or no branches): state unchanged
	}
	if !sawDefault && !alwaysRuns {
		// The no-case-taken path keeps the incoming state.
		merged = intersect(merged, held)
	}
	replace(held, merged)
}

// applyTransitions records Lock/Unlock calls appearing in stmt.
func (s *lockScanner) applyTransitions(stmt ast.Stmt, held heldSet) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, meth, ok := mutexMethod(s.info, call)
		if !ok {
			return true
		}
		switch meth {
		case "Lock":
			held[key] = heldLock{at: call.Pos(), canon: canonMutexOf(s.info, call)}
		case "RLock":
			held[key] = heldLock{at: call.Pos(), reader: true, canon: canonMutexOf(s.info, call)}
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return true
	})
}

// scanNestedLits scans function literals nested anywhere under root.
// Literals the language runs synchronously on the spot — immediately
// invoked (`func(){...}()`) or handed to sync.Once.Do — inherit the
// creator's lock state; every other literal (stored, passed as a
// callback, launched as a goroutine elsewhere) is scanned as a fresh
// function with no locks held.
func (s *lockScanner) scanNestedLits(root ast.Node, held heldSet) {
	if root == nil {
		return
	}
	immediate := make(map[*ast.FuncLit]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fl, ok := n.Fun.(*ast.FuncLit); ok {
				immediate[fl] = true
			}
			if fl := onceDoLit(s.info, n); fl != nil {
				immediate[fl] = true
			}
		case *ast.FuncLit:
			entry := make(heldSet)
			if immediate[n] {
				entry = held.clone()
			}
			s.scanFuncEntry(n, n.Body, entry)
			return false
		}
		return true
	})
}

// onceDoLit returns the literal argument of a sync.Once.Do call, if any.
func onceDoLit(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" || len(call.Args) != 1 {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	fl, _ := call.Args[0].(*ast.FuncLit)
	return fl
}

func replace(dst, src heldSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// mutexMethod reports whether call is a method call on a sync.Mutex or
// sync.RWMutex value, returning the printed receiver expression and the
// method name.
func mutexMethod(info *types.Info, call *ast.CallExpr) (key, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, okNamed := t.(*types.Named)
	if !okNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

func isUnlockMethod(name string) bool {
	return name == "Unlock" || name == "RUnlock"
}

// canonMutexOf is canonMutex applied to the receiver of a mutex method
// call (the caller must already know call is one, via mutexMethod).
func canonMutexOf(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return canonMutex(info, sel.X)
}

// canonMutex returns a stable program-wide identity for a mutex
// expression: "<pkgpath>.<Type>.<field>" for a mutex field reached
// through a value of a named type, "<pkgpath>.<var>" for a package-level
// mutex variable, and "" when no canonical identity exists (local
// mutexes, fields of anonymous struct types). Two lock sites with the
// same canonical identity may still guard different instances — the
// lock-order analysis therefore never reports self-edges.
func canonMutex(info *types.Info, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if named := derefNamed(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Obj().Name()
			}
			return ""
		}
		// Qualified reference to another package's mutex variable.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// derefNamed unwraps one level of pointer and returns the named type
// underneath, or nil.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// canonHeldOf projects a held set onto canonical identities, dropping
// locks without one.
func canonHeldOf(held heldSet) map[string]token.Pos {
	if len(held) == 0 {
		return nil
	}
	out := make(map[string]token.Pos, len(held))
	for _, l := range held {
		if l.canon != "" {
			out[l.canon] = l.at
		}
	}
	return out
}
