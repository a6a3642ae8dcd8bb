// Package directive parses ddlint's escape-hatch comments.
//
// The only directive is the allow:
//
//	//ddlint:allow <check> -- <reason>
//
// where <check> names the analyzer without its dd prefix (clock, dead,
// rand, maporder, nilgate, outfile) and <reason> is a non-empty free-text
// justification. The reason is mandatory by design: an allow is a
// reviewed decision, and the review has to survive in the source. A
// bare allow — no "--", or an empty reason — parses but is not
// WellFormed, so it suppresses nothing and the ddallow analyzer
// reports it.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

const prefix = "ddlint:allow"

// Known is the set of valid check tokens, one per enforcing analyzer.
var Known = map[string]bool{
	"clock":    true,
	"rand":     true,
	"maporder": true,
	"nilgate":  true,
	"outfile":  true,
	"dead":     true,
}

// Allow is one parsed //ddlint:allow directive.
type Allow struct {
	Line   int // 1-based line of the comment
	Pos    token.Pos
	Check  string // first token after ddlint:allow ("" if absent)
	Reason string // text after " -- " ("" if absent)
	HasSep bool   // the "--" separator was present
}

// WellFormed reports whether the directive can suppress a finding: a
// known check name and a non-empty reason behind the separator.
func (a Allow) WellFormed() bool {
	return Known[a.Check] && a.HasSep && a.Reason != ""
}

// Parse extracts every allow directive from a file's comments, keyed
// to the line each comment sits on.
func Parse(fset *token.FileSet, f *ast.File) []Allow {
	var out []Allow
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := directiveText(c.Text)
			if !ok {
				continue
			}
			a := parseAllow(text)
			a.Pos = c.Pos()
			a.Line = fset.Position(c.Pos()).Line
			out = append(out, a)
		}
	}
	return out
}

// directiveText strips the comment markers and reports whether the
// comment is a ddlint:allow directive. Like go:build directives, the
// form is //ddlint:allow with no space after the slashes; /* */
// comments are not directives.
func directiveText(comment string) (string, bool) {
	if !strings.HasPrefix(comment, "//") {
		return "", false
	}
	body := comment[2:]
	if !strings.HasPrefix(body, prefix) {
		return "", false
	}
	rest := body[len(prefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //ddlint:allowed — not ours
	}
	// A trailing "// want ..." is an analysistest assertion riding on
	// the directive line in lint fixtures, not part of the directive.
	if at := strings.Index(rest, "// want"); at >= 0 {
		rest = rest[:at]
	}
	return strings.TrimSpace(rest), true
}

func parseAllow(rest string) Allow {
	var a Allow
	if at := strings.Index(rest, "--"); at >= 0 {
		a.HasSep = true
		a.Reason = strings.TrimSpace(rest[at+2:])
		rest = strings.TrimSpace(rest[:at])
	}
	fields := strings.Fields(rest)
	if len(fields) > 0 {
		a.Check = fields[0]
	}
	return a
}
