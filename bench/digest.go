package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"ddpolice/internal/flood"
	"ddpolice/internal/outfile"
	"ddpolice/internal/sim"
)

// digestJSON is the SHA-256 of v's JSON encoding. Struct fields encode
// in declaration order and floats in their shortest round-trip form,
// so equal values give equal digests; a NaN or Inf anywhere fails the
// encoding, which the caller counts as a failed run.
func digestJSON(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// digestSimResult covers every simulated statistic of a run. Cache,
// Stages and Telemetry describe how the run was executed (cached or
// not, timed or not), not what it simulated, so they are left out: a
// speed-up must leave the rest identical.
func digestSimResult(res *sim.Result) (string, error) {
	r := *res
	r.Cache = flood.CacheStats{}
	r.Stages = nil
	r.Telemetry = nil
	return digestJSON(r)
}

// combineDigests folds a run's per-world digests, in world order, into
// the one digest that is pinned; "" when the worlds have none (live-12,
// whose output is timing).
func combineDigests(worlds []string) string {
	joined := strings.Join(worlds, "\n")
	if strings.Trim(joined, "\n") == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(joined))
	return hex.EncodeToString(sum[:])
}

// goldenPath names the pinned digest of one workload at one seed.
// Smoke sizes simulate something else, so they pin separately.
func goldenPath(dir, workload string, seed uint64, smoke bool) string {
	if smoke {
		workload += "-smoke"
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.sha256", workload, seed))
}

// readGolden returns the pinned digest, or "" when none is pinned for
// this seed.
func readGolden(path string) (string, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(buf)), nil
}

func writeGolden(path, digest string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return outfile.Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, digest+"\n")
		return err
	})
}
