package cpufeat

import "testing"

// The kernels selected on HasAVX2 also execute AVX float instructions, so
// the probe must never report the integer set without the float one.
func TestAVX2ImpliesAVX(t *testing.T) {
	if X86.HasAVX2 && !X86.HasAVX {
		t.Fatalf("probe reports AVX2 without AVX: %+v", X86)
	}
	t.Logf("features: %+v", X86)
}
