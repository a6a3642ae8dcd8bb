package ddoutfile_test

import (
	"testing"

	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/analysistest"
	"ddpolice/internal/lint/ddoutfile"
	"ddpolice/internal/lint/load"
)

func TestDDOutfile(t *testing.T) {
	analysistest.Run(t, ddoutfile.Analyzer, "../testdata/src/outfile", "ddpolice/cmd/lintfixture")
}

// Library packages are out of scope: internal/outfile itself wraps
// os.Create, and the telemetry profile writer hands its file straight
// to pprof.
func TestDDOutfileScopedToCmd(t *testing.T) {
	pkg, err := load.Dir("../testdata/src/outfile", "ddpolice/internal/outfile/fixture")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(ddoutfile.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics outside cmd/, got %d", len(diags))
	}
}
