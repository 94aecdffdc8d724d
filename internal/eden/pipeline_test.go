package eden

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/errormodel"
	"repro/internal/quant"
	"repro/internal/softmc"
)

func TestProfileAndFit(t *testing.T) {
	device := dram.NewDevice(dram.DefaultGeometry(), dram.Vendors()[0], 5)
	m := ProfileAndFit(device, 1.05, 32, 5)
	if m == nil {
		t.Fatal("no model")
	}
	// Vendor A should fit Model 0 and land near the device's expected BER.
	if m.Kind != errormodel.Model0 {
		t.Fatalf("vendor A selected %v", m.Kind)
	}
	op := dram.Nominal()
	op.VDD = 1.05
	want := dram.Vendors()[0].ExpectedBER(op)
	got := m.AggregateBER()
	if got < want/4 || got > want*4 {
		t.Fatalf("fitted BER %v vs device %v", got, want)
	}
}

func TestFineGrainedOnDevicePartitions(t *testing.T) {
	// Integration: characterize partition BERs on a partitioned device,
	// run Algorithm 1, and verify every data type lands in a partition
	// whose measured BER it tolerates.
	tm := lenet(t)
	device := dram.NewDevice(dram.DefaultGeometry(), dram.Vendors()[0], 9)
	if err := device.DefinePartitions(4); err != nil {
		t.Fatal(err)
	}
	vdds := []float64{1.35, 1.15, 1.10, 1.05}
	for p, v := range vdds {
		op := dram.Nominal()
		op.VDD = v
		if err := device.SetPartitionOp(p, op); err != nil {
			t.Fatal(err)
		}
	}
	bers := softmc.PartitionBER(device, 0xAA, 2)
	capBits := device.PartitionSize() * 8
	var parts []PartitionInfo
	for p, ber := range bers {
		parts = append(parts, PartitionInfo{ID: p, BER: ber, Bits: capBits, Op: device.PartitionOp(p)})
	}
	// Synthetic per-data tolerances spanning the partition BER range.
	data := EnumerateData(tm.Net, quant.Int8)
	var chars []DataChar
	for i, d := range data {
		tolIdx := i % len(bers)
		chars = append(chars, DataChar{DataDesc: d, TolerableBER: bers[tolIdx] * 1.01})
	}
	assign, err := MapFineGrained(chars, parts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chars {
		p := assign[c.ID]
		if bers[p] > c.TolerableBER {
			t.Fatalf("%s assigned partition %d with BER %v above tolerance %v", c.ID, p, bers[p], c.TolerableBER)
		}
	}
}
