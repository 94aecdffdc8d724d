package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func names(rs []experiments.Runner) string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Name)
	}
	return strings.Join(out, " ")
}

// TestSelected: no argument selects every report, named reports print in
// catalog order whatever order they are asked in, and a name that is no
// report's is refused with the valid names listed.
func TestSelected(t *testing.T) {
	all, err := selected(nil)
	if err != nil || len(all) != len(experiments.Runners) {
		t.Fatalf("no arguments selected %d of %d reports (err %v)", len(all), len(experiments.Runners), err)
	}
	got, err := selected([]string{"fig7", "table1", "fig7"})
	if err != nil || names(got) != "table1 fig7" {
		t.Fatalf("selected %q (err %v), want \"table1 fig7\"", names(got), err)
	}
	_, err = selected([]string{"table1", "tabel2"})
	if err == nil || !strings.Contains(err.Error(), `"tabel2"`) || !strings.Contains(err.Error(), names(experiments.Runners)) {
		t.Fatalf("an unknown name gave %v, want an error naming it and listing %q", err, names(experiments.Runners))
	}
}
