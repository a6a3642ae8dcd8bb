// Package ddclock forbids wall-clock reads in the deterministic
// packages. The byte-identity matrices (DESIGN.md §12–§17) only hold
// because simulated time flows from the tick loop; one time.Now in a
// journal stamp or a trace span breaks replay equality in a way the
// runtime tests catch late and this analyzer catches at lint time.
// Code on the live edges that genuinely needs wall time reads it outside
// the deterministic set and passes it in, as gnet's run loop does for
// its core (internal/gnet/core).
package ddclock

import (
	"go/ast"
	"go/types"

	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/scope"
)

// forbidden is the set of time-package functions that read or arm the
// wall clock. Types (time.Time, time.Duration) and pure conversions
// (time.Unix, time.Duration arithmetic) stay legal: values may be
// carried through deterministic code, they just may not originate
// there.
var forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
}

var Analyzer = &analysis.Analyzer{
	Name: "ddclock",
	Doc:  "forbid wall-clock reads (time.Now etc.) in the deterministic packages; pass the time in instead",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.InDeterministic(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !forbidden[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"wall clock: time.%s in deterministic package %s; take the time as an input or use the tick's logical time",
				fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}
