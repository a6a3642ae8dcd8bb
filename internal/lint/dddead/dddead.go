// Package dddead reports functions and methods that no root of the
// whole program reaches: code only its own tests keep alive. The roots
// (DESIGN.md §18) are every main and init, every package-level var
// initializer, the root ddpolice package's exported API, every function
// of a package no loaded package imports, and every method matching a
// method of an interface the program can see, the standard library's
// included. A reached body reaches every function it names; functions
// are keyed by package path, receiver type and name, so one package's
// export-data view of another matches the source declarations.
//
// //ddlint:allow dead -- <reason> keeps a function other packages'
// tests use, or one an open ROADMAP item will call. An allow on a
// function the pass reaches is itself a finding.
package dddead

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/directive"
	"ddpolice/internal/lint/load"
)

// apiPackage is the library facade; its exported API is a root.
const apiPackage = "ddpolice"

var Analyzer = &analysis.Analyzer{
	Name:    "dddead",
	Doc:     "every function must be reachable from a root of the whole program, not only from tests",
	Program: reach,
	Run:     run,
}

// body is a declaration whose names the walk follows.
type body struct {
	info *types.Info
	node ast.Node
}

// reach walks the program from its roots and returns the set of
// function keys it reaches.
func reach(pkgs []*load.Package) interface{} {
	imported := map[string]bool{}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	ifaces := interfaceMethods(pkgs)
	decls := map[string]body{}
	seen := map[string]bool{}
	var work []body
	for _, pkg := range pkgs {
		orphan := !imported[pkg.PkgPath] && pkg.Types.Name() != "main"
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				b := body{pkg.TypesInfo, d}
				if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.VAR {
					work = append(work, b)
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				switch {
				case fn == nil:
				case entry(pkg.Types, fd):
					work = append(work, b)
				case orphan || pkg.PkgPath == apiPackage && fn.Exported() || fd.Recv != nil && ifaces[method(fn)]:
					seen[key(fn)] = true
					work = append(work, b)
				default:
					decls[key(fn)] = b
				}
			}
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(b.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := b.info.Uses[id].(*types.Func); ok && !seen[key(fn)] {
					seen[key(fn)] = true
					if d, ok := decls[key(fn)]; ok {
						work = append(work, d)
					}
				}
			}
			return true
		})
	}
	return seen
}

func run(pass *analysis.Pass) (interface{}, error) {
	seen := pass.ProgramResult.(map[string]bool)
	for _, f := range pass.Files {
		allows := map[int]directive.Allow{}
		for _, a := range directive.Parse(pass.Fset, f) {
			if a.Check == "dead" && a.WellFormed() {
				allows[a.Line] = a
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || entry(pass.Pkg, fd) {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil || seen[key(fn)] {
				continue
			}
			line := pass.Fset.Position(fd.Name.Pos()).Line
			delete(allows, line)
			delete(allows, line-1)
			pass.Reportf(fd.Name.Pos(), "%s is reached from no root: only tests or other dead code call it", name(fn))
		}
		for _, a := range allows {
			pass.ReportUnallowed(a.Pos, "stale //ddlint:allow dead: it keeps no unreached function")
		}
	}
	return nil, nil
}

// entry reports whether fd is an init, or the main of a main package.
func entry(pkg *types.Package, fd *ast.FuncDecl) bool {
	return fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Name() == "main")
}

// key names a function the same way from its source declaration and
// from any other package's export-data view of it.
func key(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name() // a universe method: error.Error
	}
	return fn.Pkg().Path() + "." + name(fn)
}

// name is Recv.Name for a method, Name for a function.
func name(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := types.Unalias(recv.Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// method is a method's name and signature: its parameter and result
// types, with neither the receiver nor any names.
func method(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString(" (")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// interfaceMethods collects the methods of every interface declared in
// a loaded package (named or literal, at any scope) or in any package
// the program imports.
func interfaceMethods(pkgs []*load.Package) map[string]bool {
	out := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				out[method(it.Method(i))] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					add(pkg.TypesInfo.TypeOf(it))
				}
				return true
			})
		}
	}
	return out
}
