package ddnilgate_test

import (
	"testing"

	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/analysistest"
	"ddpolice/internal/lint/ddnilgate"
	"ddpolice/internal/lint/load"
)

func TestDDNilGate(t *testing.T) {
	analysistest.Run(t, ddnilgate.Analyzer, "../testdata/src/nilgate", "ddpolice/internal/journal")
}

// The contract binds the plane-defining packages only: an unrelated
// package defining its own type named Journal is not under it.
func TestDDNilGateScopedToPlanePackages(t *testing.T) {
	pkg, err := load.Dir("../testdata/src/nilgate", "ddpolice/internal/metricsrv/journalish")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(ddnilgate.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics outside the plane packages, got %d", len(diags))
	}
}

// The real plane packages must satisfy their own contract — this is
// the live invariant, not a fixture.
func TestRealPlanesSatisfyContract(t *testing.T) {
	root, err := load.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load(root, "./internal/journal", "./internal/trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(ddnilgate.Analyzer, pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s", pkg.Fset.Position(d.Pos), d.Message)
		}
	}
}
