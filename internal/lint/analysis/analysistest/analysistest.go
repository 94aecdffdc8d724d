// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against expectations embedded in the fixture, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// A fixture is one package under <testdata>/src/<name>/ that imports the
// standard library alone. A line that should trigger a diagnostic carries a
// trailing comment of the form
//
//	code() // want "regexp"
//
// with one "regexp" token per expected diagnostic on that line. Each
// regexp must match the reported message. Lines without a want comment
// must produce no diagnostics.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// Run type-checks the fixture package testdata/src/<name>, applies a, and
// reports mismatches between actual diagnostics and // want expectations
// through t, in a subtest named after the fixture.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, name string) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		t.Helper()
		runOne(t, testdata, a, name)
	})
}

// TestData returns the absolute path of the ./testdata directory of the
// calling test's package.
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	return filepath.Join(wd, "testdata")
}

func runOne(t *testing.T, testdata string, a *analysis.Analyzer, name string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	fset := token.NewFileSet()
	pkg, err := analysis.CheckDir(fset, importer.ForCompiler(fset, "source", nil), name, dir, names)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags, err := analysis.Run(a, []*analysis.Package{pkg})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	// Index actual diagnostics by file:line.
	actual := make(map[string][]string)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		actual[key] = append(actual[key], d.Message)
	}

	expected := wantExpectations(t, fset, pkg.Files)

	keys := make(map[string]bool)
	for k := range actual {
		keys[k] = true
	}
	for k := range expected {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	for _, k := range sorted {
		want, got := expected[k], actual[k]
		if len(want) != len(got) {
			t.Errorf("%s: want %d diagnostic(s) %v, got %d: %v", k, len(want), want, len(got), got)
			continue
		}
		for i, re := range want {
			if !re.MatchString(got[i]) {
				t.Errorf("%s: diagnostic %q does not match want pattern %q", k, got[i], re)
			}
		}
	}
}

// wantExpectations extracts // want "re" comments, keyed by file:line.
func wantExpectations(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	out := make(map[string][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, pat := range splitQuoted(text[len("want "):]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					out[key] = append(out[key], re)
				}
			}
		}
	}
	return out
}

// splitQuoted extracts the "..." tokens of a want comment.
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		s = s[start+1:]
		end := strings.IndexByte(s, '"')
		if end < 0 {
			return out
		}
		out = append(out, s[:end])
		s = s[end+1:]
	}
}
