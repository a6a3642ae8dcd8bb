package dddead_test

import (
	"testing"

	"ddpolice/internal/lint/analysistest"
	"ddpolice/internal/lint/dddead"
)

func TestDDDead(t *testing.T) {
	analysistest.Run(t, dddead.Analyzer, "../testdata/src/dead", "ddpolice/internal/lint/testdata/src/dead")
}
