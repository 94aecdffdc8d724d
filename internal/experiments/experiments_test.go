package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func TestTable1Rows(t *testing.T) {
	r := Table1ModelZoo()
	if len(r.Rows) != 9 {
		t.Fatalf("Table 1 has %d rows, want 9", len(r.Rows))
	}
	if !strings.Contains(r.Rows[0], "ResNet101") {
		t.Fatalf("first row %q", r.Rows[0])
	}
	out := r.String()
	if !strings.Contains(out, "E1/Table1") {
		t.Fatal("report header missing")
	}
}

func TestTable2ShapeClaims(t *testing.T) {
	r := Table2Baselines()
	if len(r.Rows) != 9 {
		t.Fatalf("Table 2 has %d rows", len(r.Rows))
	}
	// Detection rows report int8 and FP32 only.
	for _, row := range r.Rows {
		if strings.HasPrefix(row, "YOLO") && !strings.Contains(row, "-") {
			t.Fatalf("YOLO row lacks dashes: %q", row)
		}
	}
}

func TestFigure5CurveShape(t *testing.T) {
	r := Figure5BERCurves()
	// 3 vendors x 4 patterns x 6 points.
	if len(r.Rows) != 3*4*6 {
		t.Fatalf("Fig 5 has %d rows", len(r.Rows))
	}
}

func TestProfilingCostClaim(t *testing.T) {
	r := ProfilingCost()
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// The §6.2 claim: under 4 minutes for a 16-bank 4GB module.
	if !strings.Contains(r.Rows[0], "s") {
		t.Fatalf("row %q", r.Rows[0])
	}
}

func TestTable3SingleModelPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	d, err := Table3For("SqueezeNet1.1")
	if err != nil {
		t.Fatal(err)
	}
	if d.TolerableBER <= 0 {
		t.Fatalf("no tolerable BER found: TolBER %g", d.TolerableBER)
	}
	if d.DeltaVDD > 0 || d.DeltaTRCD > 0 {
		t.Fatalf("mapping increased parameters: dVDD %g V, dtRCD %g ns", d.DeltaVDD, d.DeltaTRCD)
	}
	// The cache must hand back the same deployment.
	again, err := Table3For("SqueezeNet1.1")
	if err != nil || again != d {
		t.Fatal("Table3For cache miss")
	}
}

// TestFastReportsGolden renders the fast reports through Runners exactly as
// cmd/experiments prints them and compares the bytes with
// testdata/golden/fast.txt, which `make golden` regenerates.
func TestFastReportsGolden(t *testing.T) {
	fast := []string{"table1", "table2", "fig5", "profiling", "policy", "pruning", "refresh", "margin"}
	var got strings.Builder
	for _, r := range Runners {
		if !slices.Contains(fast, r.Name) {
			continue
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		got.WriteString(rep.String() + "\n")
	}
	want, err := os.ReadFile("testdata/golden/fast.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("the fast reports differ from testdata/golden/fast.txt; got:\n%s", got.String())
	}
}

func TestPolicyAblationShape(t *testing.T) {
	r, err := CorrectionPolicyAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestPruningAblationShape(t *testing.T) {
	r, err := PruningAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	if !strings.Contains(r.Rows[0], "0%") {
		t.Fatalf("first row %q", r.Rows[0])
	}
}
