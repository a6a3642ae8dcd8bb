// Package lint assembles the ddlint analyzer suite — the repo's
// determinism invariants and its dead-code walk as compile-time checks
// (DESIGN.md §18).
package lint

import (
	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/ddallow"
	"ddpolice/internal/lint/ddclock"
	"ddpolice/internal/lint/dddead"
	"ddpolice/internal/lint/ddmaporder"
	"ddpolice/internal/lint/ddnilgate"
	"ddpolice/internal/lint/ddoutfile"
	"ddpolice/internal/lint/ddrand"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ddallow.Analyzer,
		ddclock.Analyzer,
		dddead.Analyzer,
		ddmaporder.Analyzer,
		ddnilgate.Analyzer,
		ddoutfile.Analyzer,
		ddrand.Analyzer,
	}
}
