// Package scope names the package sets ddlint's house rules apply to.
// One list, shared by the analyzers and quoted in DESIGN.md §18, so
// "the deterministic packages" means the same thing to the linter, the
// byte-identity test matrices, and the documentation.
package scope

import "strings"

// Deterministic lists the packages whose committed output (events,
// journals, traces, results) must be byte-identical across replays,
// shard counts, and plane on/off. Everything here runs on simulated
// time and seeded randomness; wall clocks and unseeded rand are build
// errors. The live node's core is here too: it takes the time with each
// input, so the same inputs give the same sends and journal. The live
// edges (gnet's shell, telemetry, metricsrv) are deliberately absent —
// they read the wall clock by design. Root, the figure library whose
// output is the committed results/csv, is in the set as itself only:
// every other package is nested under its path.
var Deterministic = []string{
	Root,
	"ddpolice/internal/sim",
	"ddpolice/internal/flood",
	"ddpolice/internal/police",
	"ddpolice/internal/trace",
	"ddpolice/internal/journal",
	"ddpolice/internal/overlay",
	"ddpolice/internal/overload",
	"ddpolice/internal/gnet/core",
}

// Root is the module's root package.
const Root = "ddpolice"

// CmdPrefix is the import-path prefix of the command-line tools, whose
// result artifacts must flow through internal/outfile's sticky-error
// writer.
const CmdPrefix = "ddpolice/cmd/"

// RNG is the one package allowed to touch raw generator construction;
// everyone else derives streams via rng.SubSeed / Source.Split.
const RNG = "ddpolice/internal/rng"

// InDeterministic reports whether pkgPath is one of the deterministic
// packages or a package nested under one other than Root.
func InDeterministic(pkgPath string) bool {
	for _, p := range Deterministic {
		if pkgPath == p || p != Root && strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// InCmd reports whether pkgPath is one of the cmd tools.
func InCmd(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, CmdPrefix)
}
