package ddrand_test

import (
	"testing"

	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/analysistest"
	"ddpolice/internal/lint/ddrand"
	"ddpolice/internal/lint/load"
)

func TestDDRand(t *testing.T) {
	analysistest.Run(t, ddrand.Analyzer, "../testdata/src/randbad", "ddpolice/internal/lint/testdata/src/randbad")
}

// internal/rng is the one package allowed to own raw generator
// mechanics.
func TestDDRandExemptsRNG(t *testing.T) {
	pkg, err := load.Dir("../testdata/src/randbad", "ddpolice/internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(ddrand.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics inside internal/rng, got %d", len(diags))
	}
}
