// Package linttest runs extravet analyzers over fixture packages and
// checks their diagnostics against expectations written in the fixture
// source, in the style of golang.org/x/tools' analysistest:
//
//	func bad(d *DB) { d.mutate() } // want `requires db.rw.W`
//
// A `// want` comment expects at least one diagnostic on its line whose
// message matches the quoted regular expression. Diagnostics on lines
// without a matching expectation fail the test, as do expectations no
// diagnostic matched — so a fixture proves both that the analyzer fires
// where it must and that it stays quiet where it must not.
package linttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// expectation is one // want comment in a fixture.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hits int
}

// Run loads the fixture package matched by pattern (relative to dir),
// runs the analyzers, and compares diagnostics with the fixture's
// // want comments.
func Run(t *testing.T, dir, pattern string, analyzers ...*lint.Analyzer) {
	t.Helper()
	res, err := lint.Load(dir, []string{pattern})
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	matched := make(map[string]bool, len(res.Matched))
	for _, p := range res.Matched {
		matched[p] = true
	}

	var wants []*expectation
	for _, pkg := range res.Prog.Pkgs {
		if !matched[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pat := strings.TrimSpace(rest)
					pat = strings.Trim(pat, "`\"")
					re, err := regexp.Compile(pat)
					if err != nil {
						pos := res.Prog.Fset.Position(c.Pos())
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					pos := res.Prog.Fset.Position(c.Pos())
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	diags, _ := lint.Run(res.Prog, analyzers, res.Matched)
	for _, d := range diags {
		pos := res.Prog.Fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hits++
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s: %s", fmtPos(pos.Filename, pos.Line), d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s: expected diagnostic matching %q, got none", fmtPos(w.file, w.line), w.re)
		}
	}
}

func fmtPos(file string, line int) string {
	if i := strings.LastIndex(file, "/"); i >= 0 {
		file = file[i+1:]
	}
	return fmt.Sprintf("%s:%d", file, line)
}
