package errormodel

import "testing"

// BenchmarkSelect fits and scores the four models on a profile of the
// pipeline's size: 64 rows of 16384 bitlines, 16 reads per cell.
func BenchmarkSelect(b *testing.B) {
	truth := &Model{Kind: Model0, Seed: 7, RowBits: 16384, P: 0.05, FA: 0.1}
	prof := synthesizeProfile(truth, 64, 16384, 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := Select(prof, 7); m.Kind != Model0 {
			b.Fatalf("selected %v", m.Kind)
		}
	}
}

// BenchmarkWeakPositions scans a span of the size of LeNet's int8 data
// (about two million bits) under each model kind.
func BenchmarkWeakPositions(b *testing.B) {
	for _, m := range kindModels(16384) {
		b.Run(m.Kind.String(), func(b *testing.B) {
			in := NewInjector(m)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(in.WeakPositions(2<<20, 3*16384)) == 0 {
					b.Fatal("no weak cells")
				}
			}
		})
	}
}
