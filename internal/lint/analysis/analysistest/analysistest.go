// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations embedded in the fixtures, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// Fixtures live under <testdata>/src/<importpath>/ (a GOPATH-shaped tree).
// A line that should trigger a diagnostic carries a trailing comment of
// the form
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
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// Run loads each fixture package below testdata/src, applies a, and
// reports mismatches between actual diagnostics and // want expectations
// through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	for _, ip := range importPaths {
		ip := ip
		t.Run(ip, func(t *testing.T) {
			t.Helper()
			runOne(t, testdata, a, ip)
		})
	}
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

func runOne(t *testing.T, testdata string, a *analysis.Analyzer, importPath string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &fixtureLoader{
		fset:   fset,
		srcdir: filepath.Join(testdata, "src"),
		cache:  make(map[string]*loadedFixture),
	}
	if _, err := ld.load(importPath); err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}

	// Every fixture the target loads is analyzed, and expectations are
	// checked across all their files, so a multi-package fixture can
	// place // want comments in its dependency packages too.
	pkgs := make([]*analysis.Package, len(ld.order))
	var files []*ast.File
	for i, fix := range ld.order {
		pkgs[i] = fix.pkg
		files = append(files, fix.pkg.Files...)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
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

	expected := wantExpectations(t, fset, files)

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

type loadedFixture struct {
	pkg *analysis.Package
}

// fixtureLoader type-checks fixture packages, resolving imports first
// against testdata/src and then against the standard library via the
// source importer (offline: it compiles type information from GOROOT
// sources).
type fixtureLoader struct {
	fset   *token.FileSet
	srcdir string
	cache  map[string]*loadedFixture
	// order lists fixtures in load-completion order: every fixture's
	// fixture dependencies precede it.
	order []*loadedFixture
	std   types.Importer
}

// Import implements types.Importer so fixtures can import each other.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.srcdir, filepath.FromSlash(path)); isDir(dir) {
		fix, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return fix.pkg.Types, nil
	}
	if l.std == nil {
		l.std = importer.ForCompiler(l.fset, "source", nil)
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) load(importPath string) (*loadedFixture, error) {
	if fix, ok := l.cache[importPath]; ok {
		return fix, nil
	}
	dir := filepath.Join(l.srcdir, filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", importPath, err)
	}
	fix := &loadedFixture{pkg: analysis.NewPackage(importPath, dir, l.fset, files, tpkg, info)}
	l.cache[importPath] = fix
	l.order = append(l.order, fix)
	return fix, nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
