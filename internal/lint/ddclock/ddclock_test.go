package ddclock_test

import (
	"testing"

	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/analysistest"
	"ddpolice/internal/lint/ddclock"
	"ddpolice/internal/lint/load"
)

func TestDDClock(t *testing.T) {
	analysistest.Run(t, ddclock.Analyzer, "../testdata/src/clockbad", "ddpolice/internal/sim/clockfixture")
}

// The same violations under a live-edge import path are out of scope:
// gnet and telemetry are allowed to read wall clocks.
func TestDDClockOutOfScope(t *testing.T) {
	pkg, err := load.Dir("../testdata/src/clockbad", "ddpolice/internal/telemetry/clockfixture")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(ddclock.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics outside the deterministic scope, got %d: %v", len(diags), diags)
	}
}
