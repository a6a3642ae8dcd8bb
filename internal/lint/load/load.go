// Package load type-checks packages for ddlint without depending on
// golang.org/x/tools/go/packages (unavailable in the offline build
// image). The strategy is the one the go command itself supports:
// `go list -export -deps` compiles dependencies and reports the path
// of each one's export data, and go/importer's "gc" importer consumes
// that export data through a lookup function. Targets are then parsed
// from source with comments (the analyzers need directive and // want
// comments) and type-checked against the dependency exports.
//
// Loading is strict on purpose — the writefail philosophy applied to
// static analysis. A package that fails to list, parse, or type-check
// is an error the caller must surface as a nonzero exit, never a
// package silently skipped: a lint gate that skips what it cannot
// load reports a clean tree it never looked at.
package load

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, fully type-checked target.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *listError
	DepsErrors []*listError
}

type listError struct {
	Err string
}

// ModuleRoot returns the directory containing go.mod — the directory
// all load patterns are resolved against, so ddlint behaves the same
// from any working directory.
func ModuleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("load: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", errors.New("load: not inside a module (go env GOMOD is empty)")
	}
	return filepath.Dir(gomod), nil
}

// Load lists, parses, and type-checks the non-test sources of every
// package matched by patterns, resolved in the module whose directory
// is dir (ModuleRoot, or a nested module such as bench/). Any package
// that cannot be fully loaded makes the whole call fail.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, patterns, "")
}

// Dir loads the one package in dir under the import path pkgPath. This
// is the fixture path: analysistest loads testdata packages under a
// caller-chosen import path so scope-sensitive analyzers (ddclock's
// deterministic-package list, ddoutfile's cmd/ prefix) see the path
// shape they enforce against.
func Dir(dir, pkgPath string) (*Package, error) {
	pkgs, err := load(dir, []string{"."}, pkgPath)
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// load is Load, with every target type-checked under pkgPath when it
// is not empty.
func load(dir string, patterns []string, pkgPath string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listPackage
	var loadErrs []string
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Error != nil {
			loadErrs = append(loadErrs, fmt.Sprintf("%s: %s", lp.ImportPath, lp.Error.Err))
		}
		for _, de := range lp.DepsErrors {
			loadErrs = append(loadErrs, fmt.Sprintf("%s: %s", lp.ImportPath, de.Err))
		}
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	if len(loadErrs) > 0 {
		sort.Strings(loadErrs)
		return nil, fmt.Errorf("load: %s", strings.Join(loadErrs, "; "))
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("load: no packages matched %v", patterns)
	}
	var pkgs []*Package
	for _, lp := range targets {
		pkg, err := check(cmp.Or(pkgPath, lp.ImportPath), lp, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(root string, args []string) ([]*listPackage, error) {
	cmdArgs := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error,DepsErrors",
	}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %w: %s",
			strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	var out []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := &listPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// check parses lp's non-test sources with comments and type-checks
// them as pkgPath against the dependency exports.
func check(pkgPath string, lp *listPackage, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var asts []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		asts = append(asts, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	var typeErrs []string
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(pkgPath, fset, asts, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("load: type-checking %s: %s", pkgPath, strings.Join(typeErrs, "; "))
	}
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     asts,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
