package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain re-executes the test binary as ddexp itself when asked to, so
// the tests below see the real exit code and streams of main — which
// exits through os.Exit and prints straight to os.Stdout.
func TestMain(m *testing.M) {
	if os.Getenv("DDEXP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ddexp runs main with args and returns its exit code and streams.
func ddexp(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DDEXP_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// An unknown -fig used to print nothing and exit 0; it must exit 2 and
// name the valid values, and the removed `scale` value must also say
// where that measurement lives now.
func TestUnknownFigExitsTwo(t *testing.T) {
	for _, fig := range []string{"nosuch", "scale"} {
		code, stdout, stderr := ddexp(t, "-fig", fig)
		if code != 2 || stdout != "" {
			t.Fatalf("-fig %s: exit = %d, stdout = %q; want 2 and nothing printed", fig, code, stdout)
		}
		if !strings.Contains(stderr, strings.Join(figValues, ", ")) {
			t.Errorf("-fig %s: stderr does not list the valid values:\n%s", fig, stderr)
		}
		if fig == "scale" && !strings.Contains(stderr, "-workload scale-100k") {
			t.Errorf("-fig scale: stderr does not name the successor:\n%s", stderr)
		}
	}
}

func TestUnknownScaleExitsTwo(t *testing.T) {
	code, _, stderr := ddexp(t, "-scale", "huge", "-fig", "table1")
	if code != 2 || !strings.Contains(stderr, "quick, paper") {
		t.Fatalf("exit = %d, stderr = %q; want 2 naming quick and paper", code, stderr)
	}
}

func TestTable1ExitsZero(t *testing.T) {
	code, stdout, stderr := ddexp(t, "-fig", "table1")
	if code != 0 || !strings.Contains(stdout, "Neighbor_Traffic") {
		t.Fatalf("exit = %d, stdout = %q, stderr = %q", code, stdout, stderr)
	}
}
