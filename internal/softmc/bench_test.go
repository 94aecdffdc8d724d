package softmc

import (
	"testing"

	"repro/internal/dram"
)

// BenchmarkCharacterize is the profiling pass of eden.ProfileAndFit as the
// pipeline runs it: vendor A, default geometry, 64 rows, 4 reads of each of
// the four patterns at VDD 1.05.
func BenchmarkCharacterize(b *testing.B) {
	d := dram.NewDevice(dram.DefaultGeometry(), dram.Vendors()[0], 0xEDE4)
	op := dram.Nominal()
	op.VDD = 1.05
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Characterize(d, op, CharacterizeConfig{Reads: 4, MaxRows: 64})
	}
}

// BenchmarkPartitionBER is the measurement pass of eden.PartitionDevice as
// the pipeline runs it: four partitions at 0.5, 1, 1.5 and 2.5 times a 1 %
// tolerable BER, two reads of the whole module.
func BenchmarkPartitionBER(b *testing.B) {
	vendor := dram.Vendors()[0]
	d := dram.NewDevice(dram.DefaultGeometry(), vendor, 0xEDE4)
	if err := d.DefinePartitions(4); err != nil {
		b.Fatal(err)
	}
	for p, level := range []float64{0.5, 1, 1.5, 2.5} {
		op := dram.Nominal()
		op.VDD = vendor.VDDForBER(0.01*level, 0.01)
		if err := d.SetPartitionOp(p, op); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionBER(d, 0xAA, 2)
	}
}
