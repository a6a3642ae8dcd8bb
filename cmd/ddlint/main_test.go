package main

import (
	"bytes"
	"strings"
	"testing"
)

// A package seeded with violations must fail the gate.
func TestSeededBadFixtureExitsNonzero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./internal/lint/testdata/src/randbad"}, &stdout, &stderr)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d; stdout=%s stderr=%s", code, exitFindings, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "math/rand") || !strings.Contains(stdout.String(), "[ddrand]") {
		t.Errorf("diagnostics missing from output:\n%s", stdout.String())
	}
	// The reviewed //ddlint:allow site must not be among the findings.
	if strings.Contains(stdout.String(), "Float64") {
		t.Errorf("allow-directive site was reported:\n%s", stdout.String())
	}
}

// A package the loader cannot type-check is a hard failure, not a
// skip: the writefail philosophy applied to static analysis.
func TestUnloadablePackageExitsNonzero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./internal/lint/testdata/src/brokenload"}, &stdout, &stderr)
	if code != exitLoadFail {
		t.Fatalf("exit = %d, want %d; stderr=%s", code, exitLoadFail, stderr.String())
	}
	if !strings.Contains(stderr.String(), "brokenload") {
		t.Errorf("stderr does not name the unloadable package:\n%s", stderr.String())
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./internal/rng"}, &stdout, &stderr)
	if code != exitClean {
		t.Fatalf("exit = %d, want 0; stdout=%s stderr=%s", code, stdout.String(), stderr.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-list"}, &stdout, &stderr)
	if code != exitClean {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"ddallow", "ddclock", "dddead", "ddmaporder", "ddnilgate", "ddoutfile", "ddrand"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}
