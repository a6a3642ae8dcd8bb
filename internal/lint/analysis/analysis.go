// Package analysis is a stdlib-only mirror of the
// golang.org/x/tools/go/analysis API surface that ddlint's analyzers
// are written against. The container this repo builds in is offline,
// so the real x/tools module cannot be a dependency; the subset here
// (Analyzer, Pass, Diagnostic, a Run driver) keeps the analyzers
// source-compatible with the upstream shape should the dependency ever
// become available — an analyzer is a name, a doc string, and a Run
// function over a type-checked package.
//
// The driver layers the repo's //ddlint:allow escape hatch on top:
// a diagnostic whose line (or the line above it) carries a well-formed
// allow directive for the reporting analyzer is suppressed. Bare or
// malformed directives never suppress anything — the ddallow analyzer
// rejects them — so every suppression in the tree is a reviewed one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ddpolice/internal/lint/directive"
	"ddpolice/internal/lint/load"
)

// Analyzer describes one static check. Name doubles as the directive
// token's "dd"-stripped prefix: //ddlint:allow clock suppresses
// ddclock findings.
type Analyzer struct {
	Name string
	Doc  string
	// Program, when set, sees every package of the run before Run sees
	// any one of them; each Pass carries its result. A whole-program
	// check (dddead) works it out here and reports per package.
	Program func([]*load.Package) interface{}
	Run     func(*Pass) (interface{}, error)
}

// AllowToken is the token that names this analyzer in a
// //ddlint:allow directive (the analyzer name without the dd prefix).
func (a *Analyzer) AllowToken() string {
	return strings.TrimPrefix(a.Name, "dd")
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ProgramResult is what Analyzer.Program returned for this run.
	ProgramResult interface{}

	diags  []Diagnostic
	allows map[string]map[int]directive.Allow
}

// Diagnostic is one finding, anchored to a position in the package.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a finding unless a reviewed //ddlint:allow directive
// for this analyzer covers the line (trailing on the same line, or on
// the line immediately above — the tail of a doc comment counts).
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if !p.allowedAt(p.Fset.Position(pos)) {
		p.ReportUnallowed(pos, format, args...)
	}
}

// ReportUnallowed records a finding that no allow directive can
// suppress: one about an allow directive itself.
func (p *Pass) ReportUnallowed(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

func (p *Pass) allowedAt(position token.Position) bool {
	lines, ok := p.allows[position.Filename]
	if !ok {
		return false
	}
	token := p.Analyzer.AllowToken()
	for _, line := range []int{position.Line, position.Line - 1} {
		if a, ok := lines[line]; ok && a.WellFormed() && a.Check == token {
			return true
		}
	}
	return false
}

// Run drives one analyzer over one package, which is its whole
// program, and returns its surviving diagnostics sorted by position.
func Run(a *Analyzer, pkg *load.Package) ([]Diagnostic, error) {
	diags, err := Check([]*Analyzer{a}, []*load.Package{pkg})
	if err != nil {
		return nil, err
	}
	return diags[0], nil
}

// Check drives every analyzer over a whole program: an analyzer's
// Program hook once over all of pkgs, then its Run once per package.
// It returns each package's diagnostics, indexed like pkgs and sorted
// by position.
func Check(analyzers []*Analyzer, pkgs []*load.Package) ([][]Diagnostic, error) {
	results := make([]interface{}, len(analyzers))
	for i, a := range analyzers {
		if a.Program != nil {
			results[i] = a.Program(pkgs)
		}
	}
	out := make([][]Diagnostic, len(pkgs))
	for i, pkg := range pkgs {
		allows := map[string]map[int]directive.Allow{}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			for _, al := range directive.Parse(pkg.Fset, f) {
				if allows[name] == nil {
					allows[name] = map[int]directive.Allow{}
				}
				allows[name][al.Line] = al
			}
		}
		for j, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types,
				TypesInfo: pkg.TypesInfo, ProgramResult: results[j], allows: allows}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
			}
			out[i] = append(out[i], pass.diags...)
		}
		sort.SliceStable(out[i], func(x, y int) bool { return out[i][x].Pos < out[i][y].Pos })
	}
	return out, nil
}
