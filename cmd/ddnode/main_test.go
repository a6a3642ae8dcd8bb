package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ddpolice/internal/journal"
)

// TestMain re-executes the test binary as ddnode itself when asked to,
// so the tests below see the real exit code and streams of main.
func TestMain(m *testing.M) {
	if os.Getenv("DDNODE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func ddnodeCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DDNODE_RUN_MAIN=1")
	return cmd
}

// ddnode runs main with args until it exits — a node that keeps running
// is killed after 3 s and reported as exit -1 — and returns its exit
// code and streams.
func ddnode(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := ddnodeCmd(args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(3*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	err := cmd.Wait()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// A flag value that cannot mean anything exits 2 naming the flag and the
// value before the node listens. -rate 0 used to land on the 1 µs ticker
// floor and flood at full speed until signalled; -journal-cap 0 was
// silently clamped to 1; a NaN sample rate would be an undefined threshold.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, tc := range [][]string{
		{"-attack", "-rate", "0"}, {"-attack", "-rate", "-5"}, {"-attack", "-rate", "nan"}, {"-attack", "-rate", "+Inf"},
		{"-journal-cap", "0"}, {"-journal-cap", "-3"},
		{"-id", "16777216"}, {"-id", "-1"},
		{"-flood-sample", "-0.1"}, {"-flood-sample", "1.5"}, {"-flood-sample", "nan"},
	} {
		flagName, value := tc[len(tc)-2], tc[len(tc)-1]
		code, stdout, stderr := ddnode(t, tc...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit = %d, stdout = %q; want 2 before anything is printed", tc, code, stdout)
		}
		if !strings.Contains(strings.ToLower(stderr), strings.ToLower(flagName+" "+value)) {
			t.Errorf("%v: stderr does not name %s %s: %q", tc, flagName, value, stderr)
		}
	}
}

// An agent that cannot read its trace is not an agent: exit 1, naming
// the file.
func TestUnreadableTraceExitsOne(t *testing.T) {
	missing := t.TempDir() + "/no-such-trace.log"
	code, _, stderr := ddnode(t, "-listen", "127.0.0.1:0", "-attack", "-trace", missing)
	if code != 1 || !strings.Contains(stderr, missing) {
		t.Fatalf("exit = %d, stderr = %q; want 1 naming %s", code, stderr, missing)
	}
}

// -metrics boots the exposition plane beside the node: /healthz answers
// ok with the node's identity, and SIGTERM shuts both down cleanly,
// closing the -journal-out file with every record the node journaled.
func TestMetricsBootsAndAnswersHealthz(t *testing.T) {
	journalOut := filepath.Join(t.TempDir(), "node.journal")
	cmd := ddnodeCmd("-id", "7", "-listen", "127.0.0.1:0", "-police", "-metrics", "127.0.0.1:0",
		"-journal-out", journalOut, "-flood-sample", "1", "-query", "prize", "-query-interval", "10ms")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()

	lines := bufio.NewScanner(stdout)
	addr := ""
	for addr == "" && lines.Scan() {
		addr, _ = strings.CutPrefix(lines.Text(), "metrics on http://")
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no metrics address printed; stderr = %q", stderr.String())
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"status":"ok"`, `"node_id":7`, `"neighbors":0`, `"cuts":0`} {
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("/healthz = %d %s; want 200 with %s", resp.StatusCode, body, want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stdout)
	if err := cmd.Wait(); err != nil || !strings.Contains(string(rest), "shutting down") {
		t.Fatalf("after SIGTERM: err = %v, stdout = %q, stderr = %q; want a clean shutdown", err, rest, stderr.String())
	}
	var n int
	_, line, _ := strings.Cut(string(rest), "journal: ")
	if _, err := fmt.Sscanf(line, "%d events -> "+journalOut+"\n", &n); err != nil {
		t.Fatalf("shutdown stdout = %q, want the journal dump line naming %s: %v", rest, journalOut, err)
	}
	f, err := os.Open(journalOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := journal.ReadNDJSON(f)
	if err != nil || len(events) != n {
		t.Fatalf("%s: %d events, %v; want the %d the dump line counts", journalOut, len(events), err, n)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("%s: record %d has seq %d: the file lost records", journalOut, i, e.Seq)
		}
	}
}

// TestSignalStopsTheNode: SIGTERM shuts the node down even while a
// searcher waits out its interval. The searcher and the agent used to
// receive from the signal channel themselves, and a searcher that took
// the signal left the node running, about one boot in three. Each boot
// here may lose that race, so the test boots several.
func TestSignalStopsTheNode(t *testing.T) {
	for i := 0; i < 6; i++ {
		cmd := ddnodeCmd("-id", "8", "-listen", "127.0.0.1:0", "-query", "prize", "-query-interval", "1h")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		kill := time.AfterFunc(3*time.Second, func() { cmd.Process.Kill() })
		lines := bufio.NewScanner(stdout)
		if !lines.Scan() || !strings.Contains(lines.Text(), "listening on") {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("boot %d: first line %q, want the listening line", i, lines.Text())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		rest, _ := io.ReadAll(stdout)
		err = cmd.Wait()
		kill.Stop()
		if err != nil || !strings.Contains(string(rest), "shutting down") {
			t.Fatalf("boot %d: after SIGTERM err = %v, stdout = %q; want a clean shutdown", i, err, rest)
		}
	}
}
