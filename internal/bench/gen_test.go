package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestGeneratorDeterminism(t *testing.T) {
	a, err := NewGenerator(11, 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(11, 8, 48)
	c, _ := NewGenerator(12, 8, 48)
	for i := range a.Bodies {
		if !bytes.Equal(a.Bodies[i], b.Bodies[i]) || a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("request %d differs between two generators of one seed", i)
		}
		if bytes.Equal(a.Bodies[i], c.Bodies[i]) || a.Seeds[i] == c.Seeds[i] {
			t.Fatalf("request %d is the same under another seed", i)
		}
	}
	for _, v := range a.Inputs[0] {
		if v < -1 || v >= 1 {
			t.Fatalf("input value %v outside [-1, 1)", v)
		}
	}
	// A body decodes back to the exact input bits and seed.
	var req PredictRequest
	if err := json.Unmarshal(a.Bodies[3], &req); err != nil {
		t.Fatal(err)
	}
	if !BitsEqual(req.Input, a.Inputs[3]) || req.Seed != a.Seeds[3] {
		t.Error("body does not round-trip its request")
	}
	pa, _ := a.ProbeBody()
	pb, _ := b.ProbeBody()
	if !bytes.Equal(pa, pb) {
		t.Error("probe body differs between two generators of one seed")
	}
}

func TestGeneratorPickSpreadsClients(t *testing.T) {
	g, _ := NewGenerator(1, genInputs, 4)
	seen := map[int]bool{}
	for c := 0; c < 16; c++ {
		seen[g.Pick(c, 0)] = true
	}
	if len(seen) != 16 {
		t.Errorf("16 simultaneous clients hit %d distinct inputs", len(seen))
	}
	if g.Pick(0, 0) == g.Pick(0, 1) {
		t.Error("consecutive iterations repeat an input")
	}
}

func TestBitsEqualAndCRC(t *testing.T) {
	a := []float32{1, -0.5, 0}
	negZero := []float32{1, -0.5, float32(math.Copysign(0, -1))}
	if !BitsEqual(a, []float32{1, -0.5, 0}) || BitsEqual(a, a[:2]) {
		t.Error("BitsEqual on equal / truncated slices")
	}
	if BitsEqual(a, negZero) || FloatsCRC(a) == FloatsCRC(negZero) {
		t.Error("0 and -0 compare equal: the check is on values, not bits")
	}
}
