package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ddpolice/internal/journal"
)

// TestMain re-executes the test binary as ddsim itself when asked to, so
// the tests below see the real exit code and streams of main.
func TestMain(m *testing.M) {
	if os.Getenv("DDSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ddsim runs main with args and returns its exit code and streams.
func ddsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DDSIM_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// TestJournalFileIsTheRecordOfTheRun: the -journal file starts at the
// run's first record and agrees with what the command prints — one cut
// per detection, one attack_start per agent, the record count of the
// summary line — and -minutes prints one row per simulated minute.
func TestJournalFileIsTheRecordOfTheRun(t *testing.T) {
	const agents, minutes = 5, 6
	path := filepath.Join(t.TempDir(), "run.ndjson")
	code, stdout, stderr := ddsim(t, "-peers", "300", "-agents", fmt.Sprint(agents), "-police",
		"-duration", fmt.Sprintf("%dm", minutes), "-attack-start", "1m", "-journal", path, "-minutes")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := journal.ReadNDJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Seq != 1 {
		t.Fatalf("journal file holds %d records and does not start at seq 1", len(events))
	}
	count := map[string]int{}
	for _, e := range events {
		count[e.Type]++
	}
	if count[journal.TypeAttackStart] != agents {
		t.Errorf("attack_start records = %d, want -agents = %d", count[journal.TypeAttackStart], agents)
	}
	if count[journal.TypeCut] == 0 {
		t.Error("no cut recorded: the run detected nothing (vacuous)")
	}
	for _, want := range []string{
		fmt.Sprintf("detections:            %d\n", count[journal.TypeCut]),
		fmt.Sprintf("journal: %d events -> %s\n", len(events), path),
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if !regexp.MustCompile(`\nflood cache: .* flushes, peak \d+\.\d MB of trees\n`).MatchString(stdout) {
		t.Errorf("stdout lacks a flood cache line ending in the trees' peak size:\n%s", stdout)
	}
	_, table, ok := strings.Cut(stdout, "\nminute ")
	if !ok {
		t.Fatalf("no -minutes table:\n%s", stdout)
	}
	if rows := strings.Count(table, "\n") - 1; rows != minutes {
		t.Errorf("-minutes table has %d rows, want %d:\n%s", rows, minutes, table)
	}
}

// The second homes are gone from the command line, not hidden: -events
// (the journal is the record), -shards (measured slower) and -trace-out
// with -trace-sample (flood fan-out is `ddexp -fig fanout`, exact; spans
// come from live nodes) are unknown flags.
func TestRemovedFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-events", "x"}, {"-shards", "2"}, {"-trace-out", "x"}, {"-trace-sample", "0.5"}} {
		code, stdout, stderr := ddsim(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%v: exit = %d, stdout = %q, stderr = %q; want 2 and an unknown-flag error", args, code, stdout, stderr)
		}
	}
}

// A duration that is not a whole number of minutes is refused with the
// rule, instead of running and dropping the partial last minute from
// every per-minute figure.
func TestPartialMinuteDurationRefused(t *testing.T) {
	code, stdout, stderr := ddsim(t, "-peers", "100", "-duration", "90s")
	if code == 0 || stdout != "" || !strings.Contains(stderr, "multiple of 60") {
		t.Errorf("-duration 90s: exit = %d, stdout = %q, stderr = %q; want non-zero naming the multiple-of-60 rule", code, stdout, stderr)
	}
}
