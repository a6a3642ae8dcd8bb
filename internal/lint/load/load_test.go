package load

import (
	"os/exec"
	"strings"
	"testing"
)

func TestLoadPackage(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), "./internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected 1 package, got %d", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.PkgPath != "ddpolice/internal/rng" {
		t.Errorf("PkgPath = %q", pkg.PkgPath)
	}
	if pkg.Types.Scope().Lookup("SubSeed") == nil {
		t.Error("type-checked package is missing SubSeed")
	}
	if len(pkg.TypesInfo.Uses) == 0 {
		t.Error("TypesInfo.Uses is empty; analyzers need full type info")
	}
}

// A package that does not type-check must fail the whole load — the
// writefail philosophy: a lint gate that skips what it cannot see
// reports a clean tree it never inspected.
func TestLoadTypeErrorFails(t *testing.T) {
	_, err := Load(moduleRoot(t), "./internal/lint/testdata/src/brokenload")
	if err == nil {
		t.Fatal("expected an error loading a package with type errors")
	}
	if !strings.Contains(err.Error(), "brokenload") {
		t.Errorf("error does not name the broken package: %v", err)
	}
}

// Lint fixtures live under testdata so the tier-1 gate never builds
// them: `go build ./...` and `go test ./...` must not see a package
// seeded with violations (brokenload does not even compile).
func TestFixturesExcludedFromTier1(t *testing.T) {
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.Contains(line, "/testdata/") {
			t.Errorf("tier-1 package pattern matches a lint fixture: %s", line)
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}
