package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// chanowner enforces single-ownership of channel struct fields: every
// channel field has exactly one closing owner function (close from a
// second function is a finding), a close outside the field's declaring
// package is a finding, and a send provably after the owner's close in
// the same straight-line function body is a finding. The owner is the
// function containing the first close in source order; closes inside
// nested literals (goroutines, sync.Once.Do bodies) are attributed to
// the enclosing declared function, so the `once.Do(func(){ close(done) })`
// idiom counts as one owner.
//
// The send-after-close check is a must-analysis over straight-line
// code: a close inside a branch does not poison the code after the
// branch, so it reports no false positives but misses flow through
// conditionals.
type chanowner struct{}

func newChanowner() *chanowner { return &chanowner{} }

func (a *chanowner) Name() string { return "chanowner" }

type closeSite struct {
	pkg *Package
	fn  string // display name of the enclosing declared function
	pos token.Pos
}

func (a *chanowner) Run(prog *Program) []Finding {
	declPkg := make(map[*types.Var]*Package) // channel field → declaring package
	for _, pkg := range prog.Pkgs {
		for _, obj := range pkg.Info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				continue
			}
			if _, isChan := v.Type().Underlying().(*types.Chan); isChan {
				declPkg[v] = pkg
			}
		}
	}
	closes := make(map[*types.Var][]closeSite)
	var fields []*types.Var // deterministic iteration order
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				name := displayName(fn)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fv := closedField(pkg.Info, call)
					if fv == nil {
						return true
					}
					if len(closes[fv]) == 0 {
						fields = append(fields, fv)
					}
					closes[fv] = append(closes[fv], closeSite{pkg: pkg, fn: name, pos: call.Pos()})
					return true
				})
			}
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		return closes[fields[i]][0].pos < closes[fields[j]][0].pos
	})

	var out []Finding
	for _, fv := range fields {
		sites := closes[fv]
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		owner := sites[0].fn
		for _, site := range sites {
			if site.fn != owner {
				out = append(out, Finding{
					Pos:      prog.Fset.Position(site.pos),
					Analyzer: "chanowner",
					Message: fmt.Sprintf("channel field %s has multiple closing owners: closed here in %s, owned by %s",
						fv.Name(), site.fn, owner),
				})
			}
			if dp := declPkg[fv]; dp != nil && site.pkg != dp {
				out = append(out, Finding{
					Pos:      prog.Fset.Position(site.pos),
					Analyzer: "chanowner",
					Message: fmt.Sprintf("channel field %s closed outside its owning package %s",
						fv.Name(), dp.Path),
				})
			}
		}
	}
	out = append(out, a.sendsAfterClose(prog)...)
	return out
}

// closedField returns the channel field a builtin close call closes, or
// nil.
func closedField(info *types.Info, call *ast.CallExpr) *types.Var {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return nil
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return nil
	}
	sel, ok := unwrapFun(call.Args[0]).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return fieldVarOf(info, sel)
}

// sendsAfterClose walks each function body tracking, per straight-line
// block, the channel fields already closed; a later send on one is
// unreachable at runtime (it would panic) and reported.
func (a *chanowner) sendsAfterClose(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				a.walkBlock(prog, pkg, fd.Body.List, make(map[*types.Var]bool), &out)
			}
		}
	}
	return out
}

func (a *chanowner) walkBlock(prog *Program, pkg *Package, stmts []ast.Stmt, closed map[*types.Var]bool, out *[]Finding) {
	clone := func() map[*types.Var]bool {
		c := make(map[*types.Var]bool, len(closed))
		for k := range closed {
			c[k] = true
		}
		return c
	}
	for _, stmt := range stmts {
		if len(closed) > 0 {
			a.checkSends(prog, pkg, stmt, closed, out)
		}
		switch st := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if fv := closedField(pkg.Info, call); fv != nil {
					closed[fv] = true
				}
			}
		case *ast.BlockStmt:
			a.walkBlock(prog, pkg, st.List, closed, out)
		case *ast.IfStmt:
			a.walkBlock(prog, pkg, st.Body.List, clone(), out)
			if st.Else != nil {
				a.walkBlock(prog, pkg, []ast.Stmt{st.Else}, clone(), out)
			}
		case *ast.ForStmt:
			a.walkBlock(prog, pkg, st.Body.List, clone(), out)
		case *ast.RangeStmt:
			a.walkBlock(prog, pkg, st.Body.List, clone(), out)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var body *ast.BlockStmt
			switch s := st.(type) {
			case *ast.SwitchStmt:
				body = s.Body
			case *ast.TypeSwitchStmt:
				body = s.Body
			case *ast.SelectStmt:
				body = s.Body
			}
			for _, c := range body.List {
				switch cc := c.(type) {
				case *ast.CaseClause:
					a.walkBlock(prog, pkg, cc.Body, clone(), out)
				case *ast.CommClause:
					a.walkBlock(prog, pkg, cc.Body, clone(), out)
				}
			}
		}
	}
}

// checkSends reports sends on already-closed channel fields in one
// statement's own expressions (nested blocks are walked separately, and
// nested literals run at an unknown time, so both are skipped).
func (a *chanowner) checkSends(prog *Program, pkg *Package, stmt ast.Stmt, closed map[*types.Var]bool, out *[]Finding) {
	send, ok := stmt.(*ast.SendStmt)
	if !ok {
		return
	}
	sel, ok := unwrapFun(send.Chan).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fv := fieldVarOf(pkg.Info, sel)
	if fv == nil || !closed[fv] {
		return
	}
	*out = append(*out, Finding{
		Pos:      prog.Fset.Position(send.Pos()),
		Analyzer: "chanowner",
		Message:  fmt.Sprintf("send on %s after close: the channel was closed earlier in this function", types.ExprString(send.Chan)),
	})
}

// fieldVarOf resolves a selector to the struct field it reads, if any.
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return nil
	}
	v, _ := selection.Obj().(*types.Var)
	return v
}
