// ddlint is the multichecker for the repo's house rules (DESIGN.md
// §18): ddclock (no wall clocks in deterministic packages), ddrand (no
// math/rand outside internal/rng), ddmaporder (no map iteration into
// order-dependent sinks), ddnilgate (plane methods must be
// nil-receiver-safe), ddoutfile (cmd artifacts go through the
// sticky-error writer), dddead (no function only tests reach), and
// ddallow (the escape hatch itself must be well-formed).
//
// Usage: ddlint [-list] [packages]
//
// Patterns are resolved from the module root (default ./...), so
// `go run ./cmd/ddlint ./...` behaves identically from any directory.
// ./... is the whole program: the main module and the nested bench
// module, so that dddead sees every caller. Other patterns load only
// what they name, and dddead treats that as the whole program.
// Exit status: 0 clean, 1 findings, 2 when a package cannot be loaded
// or type-checked. A lint run that cannot see the code MUST fail —
// the writefail philosophy applied to static analysis; there is no
// silent-skip path.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ddpolice/internal/lint"
	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/load"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitLoadFail = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return exitLoadFail
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := load.ModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "ddlint:", err)
		return exitLoadFail
	}
	pkgs, err := load.Load(root, patterns...)
	if err == nil && len(patterns) == 1 && patterns[0] == "./..." {
		var bench []*load.Package
		bench, err = load.Load(filepath.Join(root, "bench"), "./...")
		pkgs = append(pkgs, bench...)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ddlint:", err)
		return exitLoadFail
	}
	all, err := analysis.Check(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "ddlint:", err)
		return exitLoadFail
	}
	findings := 0
	for i, pkg := range pkgs {
		for _, d := range all[i] {
			pos := pkg.Fset.Position(d.Pos)
			name := pos.Filename
			if rel, err := filepath.Rel(root, name); err == nil {
				name = rel
			}
			fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n", name, pos.Line, pos.Column, d.Message, d.Analyzer)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "ddlint: %d finding(s) in %d package(s)\n", findings, len(pkgs))
		return exitFindings
	}
	return exitClean
}
