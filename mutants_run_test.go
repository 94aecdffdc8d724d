//go:build mutants

package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutants runs the mutation catalog, one entry at a time (make mutants).
// Each entry's test must first pass on the tree as it is, once per distinct
// package, pattern and race setting; then the mutated target is written to a temporary
// directory and laid over the tree with go test -overlay, and the test must
// report a failure. A mutant that does not build, or whose test does not
// run, is not caught. A check: lint entry runs repro-lint instead (lintCaught).
// The tree itself is never written.
func TestMutants(t *testing.T) {
	passed := map[[4]string]bool{}
	for _, m := range readMutants(t) {
		t.Run(m.name, func(t *testing.T) {
			if err := m.check(); err != nil {
				t.Fatal(err)
			}
			if key := [4]string{m.pkg, m.run, m.race, m.kind}; !passed[key] {
				if out, err := m.clean(); err != nil {
					t.Fatalf("%s fails without the mutant: %v\n%s", m.pkg, err, out)
				}
				passed[key] = true
			}
			mutated, err := m.mutate()
			if err != nil {
				t.Fatal(err)
			}
			if m.kind == "lint" {
				lintCaught(t, m, mutated)
				return
			}
			target, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			file := filepath.Join(dir, filepath.Base(m.file))
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {target: file}})
			if err != nil {
				t.Fatal(err)
			}
			ov := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(file, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ov, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			if out, _ := goTest(m, ov); !bytes.Contains(out, []byte("--- FAIL")) {
				t.Errorf("not caught: %s -run %s reports no failure with the mutant in place\n%s", m.pkg, m.run, out)
			}
		})
	}
}

// clean runs m's check on the tree as it is, which must pass.
func (m mutant) clean() ([]byte, error) {
	if m.kind == "lint" {
		return reproLint(".", m.pkg)
	}
	return goTest(m, "")
}

// goTest runs m's test once, over the overlay file when there is one, and
// returns its combined output. An entry that asks for the race detector
// runs five times under it, as make race runs serve: two passes overlap in
// only a fraction of runs.
func goTest(m mutant, overlay string) ([]byte, error) {
	args := []string{"test", "-count=1"}
	if m.race == "true" {
		args = []string{"test", "-race", "-count=5"}
	}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	return exec.Command("go", append(args, "-run", m.run, m.pkg)...).CombinedOutput()
}

// reproLint runs the analyzer over pkg in the module at dir.
func reproLint(dir, pkg string) ([]byte, error) {
	cmd := exec.Command("go", "run", "./cmd/repro-lint", pkg)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

// lintCaught copies the module into a temporary directory, skipping .git and
// the benchmark's build directory, writes the mutated file there, and
// requires repro-lint on m.pkg to exit 1 with an errreturn finding in that
// file. The analyzer reads sources from disk, so an overlay would not reach
// it.
func lintCaught(t *testing.T, m mutant, mutated []byte) {
	dir := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, path), 0o755)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, path), src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.file), mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := reproLint(dir, m.pkg)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("not caught: repro-lint %s should exit 1 with the mutant in place, got %v\n%s", m.pkg, err, out)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), m.file+":") && strings.Contains(sc.Text(), ": errreturn: ") {
			return
		}
	}
	t.Errorf("not caught: repro-lint %s reports no errreturn finding in %s\n%s", m.pkg, m.file, out)
}
