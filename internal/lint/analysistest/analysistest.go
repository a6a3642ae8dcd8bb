// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib-only
// framework. Fixtures live under testdata (so tier-1 go build/test
// never sees them) and are loaded under a caller-chosen import path,
// because several analyzers key their scope off the path shape
// (ddclock's deterministic list, ddoutfile's cmd/ prefix, ddnilgate's
// plane-defining packages).
//
// A want comment is a trailing comment on the offending line:
//
//	time.Now() // want "wall clock"
//
// Each quoted string must be a substring of some diagnostic on that
// line, every diagnostic must be matched by a want, and lines without
// wants must stay silent — both misses and false positives fail.
package analysistest

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"ddpolice/internal/lint/analysis"
	"ddpolice/internal/lint/load"
)

var wantRE = regexp.MustCompile(`want((?:\s+"(?:[^"\\]|\\.)*")+)\s*$`)
var quoteRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads dir as a package with import path pkgPath, applies the
// analyzer, and asserts the diagnostics exactly match the fixture's
// want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) {
	t.Helper()
	pkg, err := load.Dir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run(a, pkg)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	wants := collectWants(pkg)
	matched := make([]bool, len(diags))
	for _, w := range wants {
		ok := false
		for i, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if pos.Filename == w.file && pos.Line == w.line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s:%d: want diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			pos := pkg.Fset.Position(d.Pos)
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("diagnostic: %s: %s", pkg.Fset.Position(d.Pos), d.Message)
		}
	}
}

type want struct {
	file   string
	line   int
	substr string
}

func collectWants(pkg *load.Package) []want {
	var wants []want
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The assertion may ride at the end of another comment
				// (a //ddlint:allow directive under test), so anchor on
				// the last "// want" in the raw comment text.
				at := strings.LastIndex(c.Text, "// want")
				if at < 0 {
					continue
				}
				text := strings.TrimSpace(c.Text[at+2:])
				m := wantRE.FindStringSubmatch(text)
				if m == nil || !strings.HasPrefix(text, "want") {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, q := range quoteRE.FindAllStringSubmatch(m[1], -1) {
					wants = append(wants, want{file: name, line: line, substr: unescape(q[1])})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

func unescape(s string) string {
	s = strings.ReplaceAll(s, `\"`, `"`)
	return strings.ReplaceAll(s, `\\`, `\`)
}
