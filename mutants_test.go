package repro

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// catalogPath is the mutation catalog. Each entry is an exact substitution
// in one file that a named test must fail on: the evidence that a deleted
// or overlapping test's coverage is still held, kept where it can be re-run
// (make mutants, mutants_run_test.go) instead of as prose. The file's
// header describes the format.
const catalogPath = "testdata/mutants.txt"

// A mutant is one catalog entry.
type mutant struct {
	name     string
	file     string // target, relative to the repository root
	pkg      string // go test package pattern, e.g. ./internal/serve
	run      string // -run pattern that must fail with the mutant in place
	stands   string // the test whose coverage the entry records
	recorded string // the commit that first recorded the mutation
	race     string // "true" runs the test under -race; optional
	kind     string // the check key, "lint": repro-lint must flag it, no test runs; optional
	subs     []sub  // applied to file in order
	line     int    // of the entry's name line in the catalog
}

// A sub is one substitution block: old text, occurring exactly once in the
// file as the blocks before it leave it, replaced by new.
type sub struct{ old, new string }

// readMutants parses the catalog. Outside a substitution block, blank lines
// and lines starting with # are skipped and every other line is "key:
// value"; an entry is its key lines followed by one or more blocks
//
//	<<<
//	old text, verbatim
//	===
//	new text, verbatim
//	>>>
//
// and ends at the next name line or at the end of the file.
func readMutants(t *testing.T) []mutant {
	t.Helper()
	f, err := os.Open(catalogPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		muts  []mutant
		cur   mutant
		olds  []string
		news  []string
		block = 0 // 0 outside a block, 1 in old, 2 in new
		sc    = bufio.NewScanner(f)
		n     = 0
	)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s:%d: %s", catalogPath, n, fmt.Sprintf(format, args...))
	}
	flush := func() {
		t.Helper()
		if cur.name == "" {
			return
		}
		if len(cur.subs) == 0 {
			fail("entry %q has no substitution block", cur.name)
		}
		muts = append(muts, cur)
		cur = mutant{}
	}
	for sc.Scan() {
		n++
		line := sc.Text()
		switch {
		case block == 1 && line == "===":
			block = 2
		case block == 2 && line == ">>>":
			cur.subs = append(cur.subs, sub{strings.Join(olds, "\n"), strings.Join(news, "\n")})
			olds, news, block = nil, nil, 0
		case block == 1:
			olds = append(olds, line)
		case block == 2:
			news = append(news, line)
		case line == "<<<":
			if cur.name == "" {
				fail("substitution block before a name")
			}
			block = 1
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			key, value, ok := strings.Cut(line, ":")
			value = strings.TrimSpace(value)
			if key == "name" {
				flush()
			}
			fields := map[string]*string{"name": &cur.name, "file": &cur.file, "pkg": &cur.pkg,
				"run": &cur.run, "for": &cur.stands, "recorded": &cur.recorded, "race": &cur.race, "check": &cur.kind}
			field := fields[key]
			switch {
			case !ok || field == nil:
				fail("want key: value (name, file, pkg, run, for, recorded, race, check), got %q", line)
			case *field != "":
				fail("%s set twice in one entry", key)
			case key != "name" && cur.name == "":
				fail("%s before the entry's name", key)
			case len(cur.subs) > 0:
				fail("%s after the entry's substitution blocks", key)
			}
			if key == "name" {
				cur.line = n
			}
			*field = value
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if block != 0 {
		fail("entry %q is not closed by >>>", cur.name)
	}
	flush()
	return muts
}

// check reports why m cannot be applied to the tree: a missing field, a
// race or check value other than the ones the header allows, a target file
// or package that does not exist, or a block whose old text does not occur
// exactly once, so that the substitution is unambiguous.
func (m mutant) check() error {
	for _, f := range []struct{ key, value string }{{"file", m.file}, {"pkg", m.pkg}, {"for", m.stands}, {"recorded", m.recorded}} {
		if f.value == "" {
			return fmt.Errorf("no %s", f.key)
		}
	}
	switch {
	case m.kind == "" && m.run == "":
		return fmt.Errorf("no run")
	case m.kind == "lint" && (m.run != "" || m.race != ""):
		return fmt.Errorf("a check: lint entry runs no test, so it takes no run or race line")
	case m.kind != "" && m.kind != "lint":
		return fmt.Errorf("check is %q, want lint or no check line", m.kind)
	case m.race != "" && m.race != "true":
		return fmt.Errorf("race is %q, want true or no race line", m.race)
	}
	if gos, _ := filepath.Glob(filepath.Join(m.pkg, "*.go")); len(gos) == 0 {
		return fmt.Errorf("package %s has no Go files", m.pkg)
	}
	_, err := m.mutate()
	return err
}

// mutate returns m's file with every block applied in order.
func (m mutant) mutate() ([]byte, error) {
	src, err := os.ReadFile(m.file)
	if err != nil {
		return nil, err
	}
	text := string(src)
	for i, s := range m.subs {
		if s.old == s.new {
			return nil, fmt.Errorf("block %d: old and new are the same text", i+1)
		}
		if n := strings.Count(text, s.old); n != 1 {
			return nil, fmt.Errorf("block %d: old text occurs %d times in %s, want exactly once", i+1, n, m.file)
		}
		text = strings.Replace(text, s.old, s.new, 1)
	}
	return []byte(text), nil
}

// TestMutantCatalog checks that every catalog entry still applies to the
// tree, without running the go tool: a change that moves or rewrites a
// mutated line fails here, in the same diff, until its entry follows.
func TestMutantCatalog(t *testing.T) {
	muts := readMutants(t)
	if len(muts) == 0 {
		t.Fatal("the catalog has no entries")
	}
	names := map[string]int{}
	for _, m := range muts {
		if prev, dup := names[m.name]; dup {
			t.Errorf("%s:%d: name %q already used on line %d", catalogPath, m.line, m.name, prev)
		}
		names[m.name] = m.line
		if err := m.check(); err != nil {
			t.Errorf("%s:%d: %s: %v", catalogPath, m.line, m.name, err)
		}
	}
}
