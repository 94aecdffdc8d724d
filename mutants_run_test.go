//go:build mutants

package repro

import (
	"bytes"
	"encoding/json"
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
// run, is not caught. The tree itself is never written.
func TestMutants(t *testing.T) {
	passed := map[[3]string]bool{}
	for _, m := range readMutants(t) {
		t.Run(m.name, func(t *testing.T) {
			if err := m.check(); err != nil {
				t.Fatal(err)
			}
			if key := [3]string{m.pkg, m.run, m.race}; !passed[key] {
				if out, err := goTest(m, ""); err != nil {
					t.Fatalf("%s -run %s fails without the mutant: %v\n%s", m.pkg, m.run, err, out)
				}
				passed[key] = true
			}
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			target, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {target: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			ov := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
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
