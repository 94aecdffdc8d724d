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

// BenchmarkPartitionBER is the measurement pass of eden.PartitionDevice:
// four partitions, two reads of the whole module. "ber1pct" sets them at
// 0.5, 1, 1.5 and 2.5 times a 1 % tolerable BER, where no byte gate is on;
// "lenet" sets the voltages of the pipeline's LeNet artifact (tolerable BER
// 5.78e-4), which gate every partition, as the pipeline's pass runs.
func BenchmarkPartitionBER(b *testing.B) {
	vendor := dram.Vendors()[0]
	for _, c := range []struct {
		name string
		vdd  func(p int) float64
	}{
		{"ber1pct", func(p int) float64 { return vendor.VDDForBER(0.01*[]float64{0.5, 1, 1.5, 2.5}[p], 0.01) }},
		{"lenet", func(p int) float64 { return []float64{1.11, 1.09, 1.09, 1.07}[p] }},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := dram.NewDevice(dram.DefaultGeometry(), vendor, 0xEDE4)
			if err := d.DefinePartitions(4); err != nil {
				b.Fatal(err)
			}
			for p := 0; p < 4; p++ {
				op := dram.Nominal()
				op.VDD = c.vdd(p)
				if err := d.SetPartitionOp(p, op); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PartitionBER(d, 0xAA, 2)
			}
		})
	}
}
