package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// TestCheck runs the rule over testdata/a, a stdlib-only fixture, and holds
// its findings to the fixture's comments: a line carrying
// `// want "re" ...` must draw one finding per pattern, each matching its
// message, and every other line none.
func TestCheck(t *testing.T) {
	t.Run("a", func(t *testing.T) { checkFixture(t, "a") })
}

func checkFixture(t *testing.T, dir string) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "testdata/"+dir+"/"+dir+".go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p, err := typeCheck(fset, importer.ForCompiler(fset, "source", nil), dir, []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if pats, ok := strings.CutPrefix(c.Text, "// want "); ok {
				line := fset.Position(c.Pos()).Line
				want[line] = append(want[line], strings.Split(strings.Trim(pats, `"`), `" "`)...)
			}
		}
	}
	got := map[int][]string{}
	check(p.info, f, func(pos token.Pos, msg string) {
		line := fset.Position(pos).Line
		got[line] = append(got[line], msg)
	})
	for line := 1; line <= fset.File(f.Pos()).LineCount(); line++ {
		if len(got[line]) != len(want[line]) {
			t.Errorf("line %d: want %d finding(s) %q, got %q", line, len(want[line]), want[line], got[line])
			continue
		}
		for i, pat := range want[line] {
			if !regexp.MustCompile(pat).MatchString(got[line][i]) {
				t.Errorf("line %d: finding %q does not match %q", line, got[line][i], pat)
			}
		}
	}
}

// TestLoadRepoPackage type-checks a module package from export data.
func TestLoadRepoPackage(t *testing.T) { checkLoad(t, "repro/internal/tensor", "RNG") }

// TestLoadDepImport type-checks dnn, which imports tensor, compute, parallel
// and more, so its module imports must resolve from export data.
func TestLoadDepImport(t *testing.T) { checkLoad(t, "repro/internal/dnn", "Network") }

func checkLoad(t *testing.T, path, name string) {
	pkgs, err := load(token.NewFileSet(), ".", []string{path})
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	if len(pkgs) != 1 || len(pkgs[0].files) == 0 {
		t.Fatalf("load %s: got %d packages, want 1 with files", path, len(pkgs))
	}
	// A named type in scope proves the package type-checked, not just parsed.
	if obj := pkgs[0].types.Scope().Lookup(name); obj == nil || fmt.Sprint(obj.Type()) != path+"."+name {
		t.Errorf("load %s: %s not found as a named type", path, name)
	}
}
