package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked production package of the module under
// analysis. Test files (_test.go) are excluded on purpose: the analyzers
// enforce invariants of the shipped daemon, and tests legitimately block,
// sleep, and poke at internals.
type Package struct {
	Path  string // import path, e.g. repro/internal/sched
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Program is the loaded production source of one module: every package
// under the module root, parsed with comments and fully type-checked.
type Program struct {
	Fset   *token.FileSet
	Module string
	Pkgs   []*Package

	eng *engine // lazily built interprocedural engine (ipstate.go)
}

// loader type-checks the module's own packages from source and defers to
// the stdlib source importer for everything else. It implements
// types.Importer so package type-checking can recurse through intra-module
// imports.
type loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*Package
	typed  map[string]*types.Package
	active map[string]bool // import-cycle guard
}

// Load parses and type-checks every production package under root. root
// must contain a go.mod; its module path decides which imports are loaded
// from source here and which come from the standard library.
func Load(root string) (*Program, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// The source importer honors build.Default. Cgo-flavored variants of
	// net/os/user cannot be type-checked without running cgo, and nothing
	// in this repository needs them — force the pure-Go file sets.
	build.Default.CgoEnabled = false
	l := &loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
		typed:  make(map[string]*types.Package),
		active: make(map[string]bool),
	}
	var paths []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, module)
		} else {
			paths = append(paths, module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	prog := &Program{Fset: fset, Module: module}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, l.pkgs[p])
	}
	return prog, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		return l.load(path)
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*types.Package, error) {
	if p, ok := l.typed[path]; ok {
		return p, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	dir := l.root
	if path != l.module {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || isTestFile(name) {
			continue
		}
		// Skip files the default build excludes (//go:build race,
		// _windows.go, …), as the compiler does.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	l.typed[path] = pkg
	l.pkgs[path] = &Package{Path: path, Dir: dir, Files: files, Pkg: pkg, Info: info}
	return pkg, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !isTestFile(name) {
			return true, nil
		}
	}
	return false, nil
}

// isTestFile reports whether name is a Go test file. Test files are
// excluded from every analyzer — the suite enforces invariants of the
// shipped daemon, and tests legitimately sleep, block and leak
// goroutines. Excluding them here (rather than per-analyzer allowlists)
// keeps production-only passes like sleepfree from ever seeing test
// code; analysis_test.go carries a regression fixture for
// this.
func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}
