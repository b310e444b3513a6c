package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// wiretaint tracks values decoded from network bytes into the places
// where an unvalidated value is dangerous. Taint sources:
//
//   - calls to the decode methods of a Reader type declared in a package
//     whose base name is "wire" (Uint32, SiteID, Addr, Bytes32, …;
//     SliceLen is excluded — it is the validating decode);
//   - field selections on struct types declared in a wire package
//     (Message headers, payload fields, Microframe, MemObject, Target):
//     every wire struct may have been built by a remote peer;
//   - encoding/binary byte-order reads (Uint16/Uint32/Uint64) — the raw
//     framing path in netmgr and the transports.
//
// Sinks — reported when reached by a tainted value with no recognized
// validation between them:
//
//   - make() size and capacity arguments (map sizing included);
//   - slice/array/string indexing and slice-expression bounds;
//   - for-loop bounds (a comparison in a for condition);
//   - routing: a tainted types.SiteID passed as the destination of a
//     module Send/SendMsg/Request/RequestAddr/PushFrame call.
//
// Recognized validations (flow-insensitive, with one flow-sensitive
// exception) applied per function:
//
//   - an upper-bound comparison against an untainted value
//     (n < limit, n <= cap, limit > n, …) anywhere in the function;
//   - a lower-bound comparison (n > limit) only when the enclosing if
//     body terminates — the "guard and bail" idiom
//     (if n > max { return });
//   - equality/inequality against an untainted value, and switch
//     dispatch on the value;
//   - a Valid()/IsValid() method call on the value;
//   - use as a map index (roster/directory membership);
//   - (*wire.Reader).SliceLen results are never tainted at all.
//
// The analysis is interprocedural over the call-graph engine: each
// function gets a transfer summary — whether it returns tainted data,
// and which parameters flow to which sinks unvalidated — and summaries
// join at call sites until fixpoint, so a tainted argument that reaches
// a sink three calls deep is reported at the point where wire data
// enters the chain, with the callee witness chain in the message.
//
// Soundness caveats: validation is mostly flow-insensitive (a check
// anywhere in the function counts, even after the use); dynamic and
// unresolved interface calls do not propagate; returns tainted only by
// a parameter are not modeled; closures do not inherit taint of
// captured variables.
type wiretaint struct{}

func newWiretaint() Analyzer { return wiretaint{} }

func (wiretaint) Name() string { return "wiretaint" }

// Taint lattice element: a bitset. Bit 0 is "tainted by wire data";
// bit i+1 is "tainted by parameter i".
const wtWire uint64 = 1

func wtParam(i int) uint64 {
	if i >= 62 {
		return 0
	}
	return 1 << (uint(i) + 1)
}

// wtSink is one summary entry: data arriving through parameter param
// reaches the described sink with no validation in between.
type wtSink struct {
	param int
	what  string
	pos   token.Pos
	chain []string // callee names from the summarized function to the sink
}

type wtSummary struct {
	retTainted bool
	sinks      []wtSink
	sinkKeys   map[string]bool
}

func (sum *wtSummary) addSink(s wtSink) bool {
	key := fmt.Sprintf("%d|%s|%s", s.param, s.what, strings.Join(s.chain, "→"))
	if sum.sinkKeys == nil {
		sum.sinkKeys = make(map[string]bool)
	}
	if sum.sinkKeys[key] {
		return false
	}
	sum.sinkKeys[key] = true
	sum.sinks = append(sum.sinks, s)
	return true
}

// readerSources are the Reader decode methods whose results are tainted.
// SliceLen is absent by design: it validates the decoded count against
// the remaining payload before returning it.
var readerSources = map[string]bool{
	"Uint8": true, "Uint16": true, "Uint32": true, "Uint64": true,
	"Int16": true, "Int32": true, "Int64": true, "Float64": true,
	"Bool": true, "String": true, "Bytes32": true,
	"SiteID": true, "ProgramID": true, "ThreadID": true, "Addr": true,
}

// routeFuncs are module functions whose types.SiteID arguments are
// routing decisions.
var routeFuncs = map[string]bool{
	"Send": true, "SendMsg": true, "Request": true, "RequestAddr": true,
	"PushFrame": true,
}

func (wiretaint) Run(prog *Program) []Finding {
	e := prog.engine()
	w := &wtState{
		eng:       e,
		summaries: make(map[*funcSum]*wtSummary, len(e.sums)),
		callops:   make(map[*funcSum]map[token.Pos]*callOp, len(e.sums)),
	}
	for _, s := range e.sums {
		w.summaries[s] = &wtSummary{}
		ops := make(map[token.Pos]*callOp, len(s.calls))
		for i := range s.calls {
			ops[s.calls[i].pos] = &s.calls[i]
		}
		w.callops[s] = ops
	}
	// Propagate transfer summaries to fixpoint: a round recomputes every
	// function against current callee summaries; summaries only grow.
	const maxRounds = 12
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, s := range e.sums {
			if w.analyze(s, nil) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Final pass: collect findings with stable summaries.
	var out []Finding
	seen := make(map[string]bool)
	for _, s := range e.sums {
		w.analyze(s, func(pos token.Pos, msg string) {
			p := prog.Fset.Position(pos)
			key := fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, msg)
			if seen[key] {
				return
			}
			seen[key] = true
			out = append(out, Finding{Pos: p, Analyzer: "wiretaint", Message: msg})
		})
	}
	return out
}

type wtState struct {
	eng       *engine
	summaries map[*funcSum]*wtSummary
	callops   map[*funcSum]map[token.Pos]*callOp
}

// fnCtx is the per-function analysis context.
type fnCtx struct {
	w        *wtState
	s        *funcSum
	info     *types.Info
	paramIdx map[types.Object]int
	objBits  map[types.Object]uint64
	// validated maps an expression to the scopes in which a check bounds
	// it; a nil scope is the whole function.
	validated map[string][]ast.Node
}

// analyze runs the local taint analysis for one function, folding the
// results into its summary; report, when non-nil, receives local
// findings. It returns whether the summary grew.
func (w *wtState) analyze(s *funcSum, report func(token.Pos, string)) bool {
	body := funcBody(s)
	if body == nil {
		return false
	}
	c := &fnCtx{
		w:         w,
		s:         s,
		info:      s.pkg.Info,
		paramIdx:  make(map[types.Object]int),
		objBits:   make(map[types.Object]uint64),
		validated: make(map[string][]ast.Node),
	}
	if sig := funcSig(s); sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			c.paramIdx[sig.Params().At(i)] = i
		}
	}
	// Phase A: propagate taint through local assignments, ignoring
	// validation, until stable (maximal taint).
	for {
		if !c.propagateOnce(body, false) {
			break
		}
	}
	// Phase B: collect validated expressions using the maximal taint.
	c.collectValidations(body)
	// Phase C: recompute object taint honoring validation.
	for k := range c.objBits {
		delete(c.objBits, k)
	}
	for {
		if !c.propagateOnce(body, true) {
			break
		}
	}
	// Phase D: sinks and the return-taint bit.
	return c.findSinks(body, report)
}

// propagateOnce walks the body once, updating objBits from assignments
// and range statements. Reports whether anything changed.
func (c *fnCtx) propagateOnce(body *ast.BlockStmt, useValidated bool) bool {
	changed := false
	merge := func(id ast.Expr, bits uint64) {
		ident, ok := id.(*ast.Ident)
		if !ok || ident.Name == "_" {
			return
		}
		obj := c.info.Defs[ident]
		if obj == nil {
			obj = c.info.Uses[ident]
		}
		if obj == nil {
			return
		}
		if c.objBits[obj]|bits != c.objBits[obj] {
			c.objBits[obj] |= bits
			changed = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					merge(n.Lhs[i], c.taintOf(n.Rhs[i], useValidated))
				}
			} else if len(n.Rhs) == 1 {
				// x, y := f() — every LHS gets the call's taint.
				bits := c.taintOf(n.Rhs[0], useValidated)
				for _, lhs := range n.Lhs {
					merge(lhs, bits)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if len(n.Values) == len(n.Names) {
					merge(name, c.taintOf(n.Values[i], useValidated))
				} else if len(n.Values) == 1 {
					merge(name, c.taintOf(n.Values[0], useValidated))
				}
			}
		case *ast.RangeStmt:
			// The value variable carries the container's taint; the key
			// (an index produced by the runtime) is clean.
			if n.Value != nil {
				merge(n.Value, c.taintOf(n.X, useValidated))
			}
		}
		return true
	})
	return changed
}

// isValidated reports whether a check bounds e at e's position.
func (c *fnCtx) isValidated(e ast.Expr) bool {
	for _, scope := range c.validated[types.ExprString(e)] {
		if scope == nil || (scope.Pos() <= e.Pos() && e.Pos() < scope.End()) {
			return true
		}
	}
	return false
}

// taintOf evaluates the taint bits of an expression. With useValidated,
// expressions recognized as validated evaluate clean.
func (c *fnCtx) taintOf(e ast.Expr, useValidated bool) uint64 {
	if e == nil {
		return 0
	}
	if useValidated && c.isValidated(e) {
		return 0
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := c.info.Uses[x]
		if obj == nil {
			obj = c.info.Defs[x]
		}
		if obj == nil {
			return 0
		}
		bits := c.objBits[obj]
		if i, ok := c.paramIdx[obj]; ok {
			bits |= wtParam(i)
		}
		return bits
	case *ast.SelectorExpr:
		// Method values carry no taint themselves.
		if _, isFn := c.info.Uses[x.Sel].(*types.Func); isFn {
			return 0
		}
		bits := c.taintOf(x.X, useValidated)
		if wireStruct(c.info.TypeOf(x.X)) {
			bits |= wtWire
		}
		return bits
	case *ast.CallExpr:
		return c.callTaint(x, useValidated)
	case *ast.IndexExpr:
		return c.taintOf(x.X, useValidated)
	case *ast.SliceExpr:
		return c.taintOf(x.X, useValidated)
	case *ast.StarExpr:
		return c.taintOf(x.X, useValidated)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return 0 // channel contents: out of scope
		}
		return c.taintOf(x.X, useValidated)
	case *ast.ParenExpr:
		return c.taintOf(x.X, useValidated)
	case *ast.TypeAssertExpr:
		return c.taintOf(x.X, useValidated)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR, token.EQL, token.NEQ,
			token.LSS, token.LEQ, token.GTR, token.GEQ:
			return 0 // booleans are not interesting taint
		case token.REM, token.AND:
			// n % len(x), n & mask: clamped by an untainted right side.
			if c.taintOf(x.Y, useValidated) == 0 {
				return 0
			}
		}
		return c.taintOf(x.X, useValidated) | c.taintOf(x.Y, useValidated)
	case *ast.CompositeLit:
		var bits uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			bits |= c.taintOf(el, useValidated)
		}
		return bits
	}
	return 0
}

// callTaint evaluates the taint of a call expression's result.
func (c *fnCtx) callTaint(call *ast.CallExpr, useValidated bool) uint64 {
	info := c.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return c.taintOf(call.Args[0], useValidated) // conversion
		}
		return 0
	}
	switch fn := unwrapFun(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fn].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "make", "new":
				return 0
			case "min", "max":
				// A clamp against any untainted operand bounds the result.
				for _, a := range call.Args {
					if c.taintOf(a, useValidated) == 0 {
						return 0
					}
				}
				var bits uint64
				for _, a := range call.Args {
					bits |= c.taintOf(a, useValidated)
				}
				return bits
			case "append":
				var bits uint64
				for _, a := range call.Args {
					bits |= c.taintOf(a, useValidated)
				}
				return bits
			}
			return 0
		}
	case *ast.SelectorExpr:
		if src, ok := wireSource(info, call, fn); ok {
			if src {
				return wtWire
			}
			return 0
		}
	}
	// Module calls: a callee summarized as returning tainted data taints
	// the result.
	for _, t := range c.callees(call) {
		if sum := c.w.summaries[t]; sum != nil && sum.retTainted {
			return wtWire
		}
	}
	return 0
}

// wireSource classifies a method call as a taint source. The second
// return is whether the call was recognized as a Reader/byte-order
// method at all (recognized-but-clean covers SliceLen).
func wireSource(info *types.Info, call *ast.CallExpr, sel *ast.SelectorExpr) (tainted, recognized bool) {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false, false
	}
	named := derefNamed(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return false, false
	}
	pkg := named.Obj().Pkg().Path()
	switch {
	case pkgBase(pkg) == "wire" && named.Obj().Name() == "Reader":
		return readerSources[fn.Name()], true
	case pkg == "encoding/binary":
		switch fn.Name() {
		case "Uint16", "Uint32", "Uint64":
			return true, true
		}
	}
	return false, false
}

// wireStruct reports whether t is (a pointer to) a named struct declared
// in a package whose base name is "wire" — a type a remote peer can
// populate. The codec's own Reader/Writer are excluded.
func wireStruct(t types.Type) bool {
	named := derefNamed(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if pkgBase(named.Obj().Pkg().Path()) != "wire" {
		return false
	}
	name := named.Obj().Name()
	if name == "Reader" || name == "Writer" {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// collectValidations walks the body marking expressions the function
// checks before (or, flow-insensitively, anywhere around) use.
func (c *fnCtx) collectValidations(body *ast.BlockStmt) {
	info := c.info
	// Comparisons inside for-conditions are loop-bound sinks, never
	// validations. Comparisons inside if-conditions are judged once, by
	// the IfStmt case, which knows which branch bails.
	inForCond := make(map[ast.Node]bool)
	inIfCond := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond != nil {
				ast.Inspect(n.Cond, func(m ast.Node) bool {
					inForCond[m] = true
					return true
				})
			}
		case *ast.IfStmt:
			ast.Inspect(n.Cond, func(m ast.Node) bool {
				inIfCond[m] = true
				return true
			})
		}
		return true
	})
	// markIn records an expression as validated within scope (nil: the
	// whole function), unwrapping parens and conversions so a check on
	// uint64(n) also validates n.
	var markIn func(e ast.Expr, scope ast.Node)
	markIn = func(e ast.Expr, scope ast.Node) {
		key := types.ExprString(e)
		c.validated[key] = append(c.validated[key], scope)
		switch x := e.(type) {
		case *ast.ParenExpr:
			markIn(x.X, scope)
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				markIn(x.Args[0], scope)
			}
		}
	}
	mark := func(e ast.Expr) { markIn(e, nil) }
	// cmpValidates records bounds established by one comparison. The
	// side a true comparison bounds from above (X in X < Y) is validated
	// in trueBranch, the if's body; a comparison outside an if (nil)
	// validates it everywhere. The other side is validated after a
	// guard-and-bail (bailing), whose fall-through is the false branch.
	// So `if n < 0 { return }` bounds n nowhere.
	cmpValidates := func(b *ast.BinaryExpr, trueBranch ast.Node, bailing bool) {
		x, y := c.taintOf(b.X, false), c.taintOf(b.Y, false)
		switch b.Op {
		case token.EQL, token.NEQ:
			if x != 0 && y == 0 {
				mark(b.X)
			}
			if y != 0 && x == 0 {
				mark(b.Y)
			}
		case token.LSS, token.LEQ: // X < Y: X gains an upper bound
			if x != 0 && y == 0 {
				markIn(b.X, trueBranch)
			}
			if bailing && y != 0 && x == 0 {
				mark(b.Y)
			}
		case token.GTR, token.GEQ: // X > Y: Y gains an upper bound
			if y != 0 && x == 0 {
				markIn(b.Y, trueBranch)
			}
			if bailing && x != 0 && y == 0 {
				mark(b.X)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			bailing := blockTerminates(n.Body)
			ast.Inspect(n.Cond, func(m ast.Node) bool {
				if b, ok := m.(*ast.BinaryExpr); ok && !inForCond[b] {
					cmpValidates(b, n.Body, bailing)
				}
				return true
			})
		case *ast.BinaryExpr:
			if !inForCond[n] && !inIfCond[n] {
				cmpValidates(n, nil, false)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && c.taintOf(n.Tag, false) != 0 {
				mark(n.Tag)
			}
		case *ast.IndexExpr:
			// Map lookup: membership in a roster/directory validates the
			// key.
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				if c.taintOf(n.Index, false) != 0 {
					mark(n.Index)
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
					if fn.Name() == "Valid" || fn.Name() == "IsValid" {
						mark(sel.X)
					}
				}
			}
		}
		return true
	})
}

// blockTerminates reports whether a block's last statement definitely
// leaves the function or loop (return, branch, panic).
func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// findSinks performs the final pass: local sink checks, interprocedural
// sink checks through callee summaries, and the return-taint bit. It
// reports whether the function's summary grew.
func (c *fnCtx) findSinks(body *ast.BlockStmt, report func(token.Pos, string)) bool {
	info := c.info
	grew := false
	// sink handles one dangerous use: wire taint reports, parameter
	// taint extends the summary.
	sink := func(pos token.Pos, bits uint64, what string, chain []string) {
		if bits == 0 {
			return
		}
		if bits&wtWire != 0 && report != nil {
			msg := what
			if len(chain) > 0 {
				msg += " (via " + strings.Join(chain, " → ") + ")"
			}
			report(pos, msg)
		}
		for i := 0; i < 62; i++ {
			if bits&wtParam(i) != 0 {
				if c.w.summaries[c.s].addSink(wtSink{param: i, what: what, pos: pos, chain: chain}) {
					grew = true
				}
			}
		}
	}
	eval := func(e ast.Expr) uint64 { return c.taintOf(e, true) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond != nil {
				ast.Inspect(n.Cond, func(m ast.Node) bool {
					if b, ok := m.(*ast.BinaryExpr); ok {
						switch b.Op {
						case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
							sink(b.Pos(), eval(b.X)|eval(b.Y),
								"wire-tainted value used as loop bound without validation", nil)
						}
					}
					return true
				})
			}
		case *ast.IndexExpr:
			switch info.TypeOf(n.X).Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
				sink(n.Index.Pos(), eval(n.Index),
					"wire-tainted value used as index without bounds validation", nil)
			case *types.Basic: // string indexing
				sink(n.Index.Pos(), eval(n.Index),
					"wire-tainted value used as index without bounds validation", nil)
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound != nil {
					sink(bound.Pos(), eval(bound),
						"wire-tainted value used as slice bound without validation", nil)
				}
			}
		case *ast.CallExpr:
			c.callSinks(n, sink, eval)
		}
		return true
	})
	// Return taint.
	sum := c.w.summaries[c.s]
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok && !sum.retTainted {
			for _, r := range ret.Results {
				if c.taintOf(r, false)&wtWire != 0 {
					sum.retTainted = true
					grew = true
					break
				}
			}
		}
		return true
	})
	return grew
}

// callSinks checks one call site: make sizing, routing destinations and
// tainted arguments flowing into callee parameter sinks.
func (c *fnCtx) callSinks(call *ast.CallExpr, sink func(token.Pos, uint64, string, []string), eval func(ast.Expr) uint64) {
	info := c.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := unwrapFun(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "make" {
				for _, a := range call.Args[1:] {
					sink(a.Pos(), eval(a),
						"wire-tainted value used to size make without validation", nil)
				}
			}
			return
		}
	}
	// Routing sinks: tainted SiteID destinations.
	var callee *types.Func
	switch fn := unwrapFun(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fn].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fn.Sel].(*types.Func)
	}
	if callee != nil && routeFuncs[callee.Name()] {
		for _, a := range call.Args {
			if named := derefNamed(info.TypeOf(a)); named != nil &&
				named.Obj().Name() == "SiteID" {
				sink(a.Pos(), eval(a),
					"wire-tainted site id used as routing destination without validation", nil)
			}
		}
	}
	// Interprocedural: arguments flowing into callee parameter sinks.
	for _, t := range c.callees(call) {
		sum := c.w.summaries[t]
		if sum == nil {
			continue
		}
		for _, sk := range sum.sinks {
			if sk.param >= len(call.Args) {
				continue
			}
			chain := append([]string{t.name}, sk.chain...)
			sink(call.Pos(), eval(call.Args[sk.param]), sk.what, chain)
		}
	}
}

// callees resolves a call expression to its summarized targets through
// the engine's recorded call site (static, literal and expanded
// interface edges; dynamic calls stay unresolved).
func (c *fnCtx) callees(call *ast.CallExpr) []*funcSum {
	op := c.w.callops[c.s][call.Pos()]
	if op == nil || op.isGo {
		return nil
	}
	return op.callees
}
