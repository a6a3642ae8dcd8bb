package ddpolice

import (
	"os/exec"
	"testing"

	// The benchmark builds against gnet, which nothing else in this test
	// binary imports: with it linked in, go test's cache re-runs
	// TestBenchModuleCompiles whenever any package bench/ uses changes.
	_ "ddpolice/internal/gnet"
)

// TestBenchModuleCompiles vets the benchmark, a nested module (bench/)
// that `go build ./...` and `go test ./...` from here never build,
// although it names the simulator's, the live node's and the flood
// kernel's API: a change to that API fails here rather than only under
// `make benchcheck`. About a second warm.
func TestBenchModuleCompiles(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
