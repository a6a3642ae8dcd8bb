package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ddpolice"
)

var update = flag.Bool("update", false, "re-pin testdata/quick from this build's output (make golden)")

// TestMain re-executes the test binary as ddexp itself when asked to, so
// the tests below see the real exit code and streams of main — which
// exits through os.Exit and prints straight to os.Stdout.
func TestMain(m *testing.M) {
	switch os.Getenv("DDEXP_RUN_MAIN") {
	case "badplan":
		// The table with a study whose plan cannot run, last in line.
		ddpolice.Figures = append(ddpolice.Figures, ddpolice.Figure{
			Keys: []string{"badplan"},
			Plan: func(s ddpolice.Scale) []ddpolice.Row {
				cfg := ddpolice.DefaultConfig()
				cfg.NumAgents = cfg.NumPeers
				return []ddpolice.Row{{Label: "all agents", Config: cfg}}
			},
		})
		fallthrough
	case "1":
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ddexp runs main with args and returns its exit code and streams.
func ddexp(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return ddexpOver(t, "1", args...)
}

// ddexpOver is ddexp over the committed figure table ("1") or over the
// table TestMain seeds with a bad plan ("badplan").
func ddexpOver(t *testing.T, table string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DDEXP_RUN_MAIN="+table)
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
		if !strings.Contains(stderr, strings.Join(ddpolice.FigureKeys(), ", ")) {
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

// ddexp prints figures; the timing table went to the repository
// benchmark and the trace capture to ddsim, and their flags with them.
func TestRemovedFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-telemetry"}, {"-trace-out", "x"}, {"-trace-sample", "1"}} {
		code, stdout, stderr := ddexp(t, append(args, "-fig", "table1")...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%v: exit = %d, stdout = %q, stderr = %q; want 2 and an unknown-flag error", args, code, stdout, stderr)
		}
	}
}

func TestTable1ExitsZero(t *testing.T) {
	code, stdout, stderr := ddexp(t, "-fig", "table1")
	if code != 0 || !strings.Contains(stdout, "Neighbor_Traffic") {
		t.Fatalf("exit = %d, stdout = %q, stderr = %q", code, stdout, stderr)
	}
}

// A study whose plan cannot run stops ddexp before the first simulation,
// not after every figure ahead of it: nothing is printed, nothing is
// written, and stderr names the figure, the run and what is wrong.
// Selecting only valid entries of the same table still works.
func TestInvalidPlanFailsBeforeAnyRun(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := ddexpOver(t, "badplan", "-fig", "all", "-scale", "quick", "-csv", dir)
	if code == 0 || stdout != "" || len(readDir(t, dir)) != 0 {
		t.Fatalf("exit = %d, stdout = %q, %d files written; want a failure before any figure", code, stdout, len(readDir(t, dir)))
	}
	for _, want := range []string{"[badplan]", `run "all agents"`, "NumAgents = 2000 of 2000 peers"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	if code, stdout, _ := ddexpOver(t, "badplan", "-fig", "table1"); code != 0 || !strings.Contains(stdout, "Neighbor_Traffic") {
		t.Errorf("-fig table1 beside the bad entry: exit = %d, stdout = %q", code, stdout)
	}
}

// quickDir holds what `ddexp -fig all -scale quick -csv D -svg D` wrote
// at the commit that pinned it: stdout.txt plus every file of D.
const quickDir = "testdata/quick"

// TestQuickRegenerationPinned holds the whole quick-scale regeneration —
// stdout, every CSV and every SVG — byte for byte to testdata/quick, and
// names the first artifact and line that moved. `go test ./cmd/ddexp
// -run Pinned -update` re-pins; only for a change meant to move a figure.
func TestQuickRegenerationPinned(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := ddexp(t, "-fig", "all", "-scale", "quick", "-csv", dir, "-svg", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	got := readDir(t, dir)
	got["stdout.txt"] = stdout
	if *update {
		if err := os.RemoveAll(quickDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(quickDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range got {
			if err := os.WriteFile(filepath.Join(quickDir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want := readDir(t, quickDir)
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but no longer written", name)
		}
	}
	for _, name := range sortedKeys(got) {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: written but not pinned in %s", name, quickDir)
			continue
		}
		if line, g, w := firstDiff(got[name], w); line > 0 {
			t.Fatalf("%s differs from %s first at line %d:\n got: %s\nwant: %s", name, quickDir, line, g, w)
		}
	}
}

// One -fig key selects one table entry: `-fig 13` prints exactly the
// Figures 13 & 14 section of the pinned full run, nothing else.
func TestFigKeySelectsOneEntry(t *testing.T) {
	pinned := readDir(t, quickDir)["stdout.txt"]
	start := strings.Index(pinned, "\n== Figures 13 & 14")
	if start < 0 {
		t.Fatalf("no Figures 13 & 14 section in %s/stdout.txt", quickDir)
	}
	want := pinned[start:]
	if end := strings.Index(want[1:], "\n== "); end >= 0 {
		want = want[:end+1]
	}
	code, stdout, stderr := ddexp(t, "-fig", "13", "-scale", "quick")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	if line, g, w := firstDiff(stdout, want); line > 0 {
		t.Fatalf("-fig 13 differs from its pinned section first at line %d:\n got: %s\nwant: %s", line, g, w)
	}
}

func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(body)
	}
	return files
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// firstDiff returns the 1-based number and both versions of the first
// line where got and want differ, or 0 when they are identical.
func firstDiff(got, want string) (line int, g, w string) {
	if got == want {
		return 0, "", ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w = "<end of output>", "<end of output>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}
