package dram

import (
	"math"
	"strings"
	"testing"
)

func testGeom() Geometry {
	return Geometry{Banks: 2, SubarraysPerBank: 4, RowsPerSubarray: 8, RowBytes: 256}
}

func TestGeometryArithmetic(t *testing.T) {
	g := testGeom()
	if g.Capacity() != 2*4*8*256 {
		t.Fatalf("capacity %d", g.Capacity())
	}
	if g.Rows() != 64 || g.Subarrays() != 8 {
		t.Fatalf("rows %d subarrays %d", g.Rows(), g.Subarrays())
	}
	if DefaultGeometry().Capacity() != 4<<20 {
		t.Fatalf("default capacity %d, want 4 MiB", DefaultGeometry().Capacity())
	}
}

func TestNominalReadIsExact(t *testing.T) {
	d := NewDevice(testGeom(), Vendors()[0], 1)
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	d.Write(100, data)
	for trial := 0; trial < 5; trial++ {
		got := d.Read(100, len(data))
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("nominal read flipped byte %d on trial %d", i, trial)
			}
		}
	}
}

func measureBER(d *Device, op OperatingPoint, pattern byte, reads int) float64 {
	n := d.Capacity()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = pattern
	}
	d.Write(0, buf)
	d.SetOperatingPoint(op)
	flips := 0
	for r := 0; r < reads; r++ {
		got := d.Read(0, n)
		for i := range got {
			if diff := got[i] ^ pattern; diff != 0 {
				for b := 0; b < 8; b++ {
					if diff>>uint(b)&1 == 1 {
						flips++
					}
				}
			}
		}
	}
	d.SetOperatingPoint(Nominal())
	return float64(flips) / float64(n*8*reads)
}

func TestVoltageBERMonotone(t *testing.T) {
	d := NewDevice(testGeom(), Vendors()[0], 3)
	var last float64 = -1
	for _, v := range []float64{1.30, 1.20, 1.10, 1.05} {
		op := Nominal()
		op.VDD = v
		ber := measureBER(d, op, 0xAA, 2)
		if ber < last {
			t.Fatalf("BER not monotone: %v at %vV after %v", ber, v, last)
		}
		last = ber
	}
	if last < 1e-4 {
		t.Fatalf("BER at 1.05V = %v, expected substantial", last)
	}
}

func TestTRCDBERMonotone(t *testing.T) {
	d := NewDevice(testGeom(), Vendors()[0], 4)
	var last float64 = -1
	for _, trcd := range []float64{12.5, 9.0, 7.0, 5.0} {
		op := Nominal()
		op.Timing.TRCD = trcd
		ber := measureBER(d, op, 0xCC, 2)
		if ber < last {
			t.Fatalf("BER not monotone in tRCD: %v at %vns", ber, trcd)
		}
		last = ber
	}
	if last < 1e-4 {
		t.Fatalf("BER at 5ns = %v, expected substantial", last)
	}
}

func TestExpectedBERMatchesMeasured(t *testing.T) {
	for _, vendor := range Vendors() {
		d := NewDevice(testGeom(), vendor, 5)
		op := Nominal()
		op.VDD = 1.05
		want := vendor.ExpectedBER(op)
		got := measureBER(d, op, 0xAA, 4) // 0xAA has equal 0s and 1s
		if got < want/3 || got > want*3 {
			t.Errorf("vendor %s: measured BER %v vs expected %v", vendor.Name, got, want)
		}
	}
}

func TestDataPatternDependenceVoltage(t *testing.T) {
	// Under voltage stress, 1→0 flips dominate: all-ones pattern must see a
	// higher BER than all-zeros (paper Fig. 5 top, Error Model 3).
	d := NewDevice(testGeom(), Vendors()[0], 6)
	op := Nominal()
	op.VDD = 1.08
	berOnes := measureBER(d, op, 0xFF, 4)
	berZeros := measureBER(d, op, 0x00, 4)
	if berOnes <= berZeros {
		t.Fatalf("voltage: BER(0xFF)=%v <= BER(0x00)=%v", berOnes, berZeros)
	}
}

func TestDataPatternDependenceTRCD(t *testing.T) {
	// Under latency stress, 0→1 flips dominate.
	d := NewDevice(testGeom(), Vendors()[0], 7)
	op := Nominal()
	op.Timing.TRCD = 6.0
	berZeros := measureBER(d, op, 0x00, 4)
	berOnes := measureBER(d, op, 0xFF, 4)
	if berZeros <= berOnes {
		t.Fatalf("tRCD: BER(0x00)=%v <= BER(0xFF)=%v", berZeros, berOnes)
	}
}

// flipsPerBitline measures how unevenly flips distribute over bitlines.
func flipsPerBitline(d *Device, op OperatingPoint, reads int) []int {
	n := d.Capacity()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = 0xAA
	}
	d.Write(0, buf)
	d.SetOperatingPoint(op)
	counts := make([]int, d.Geom.RowBytes*8)
	for r := 0; r < reads; r++ {
		got := d.Read(0, n)
		for i := range got {
			diff := got[i] ^ 0xAA
			for b := 0; b < 8; b++ {
				if diff>>uint(b)&1 == 1 {
					counts[(i%d.Geom.RowBytes)*8+b]++
				}
			}
		}
	}
	d.SetOperatingPoint(Nominal())
	return counts
}

// concentration returns the fraction of flips on the top 10% of positions.
func concentration(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	sorted := append([]int(nil), counts...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	top := 0
	for i := 0; i < len(sorted)/10; i++ {
		top += sorted[i]
	}
	return float64(top) / float64(total)
}

func TestVendorBHasBitlineStructure(t *testing.T) {
	op := Nominal()
	op.VDD = 1.02
	a := NewDevice(testGeom(), Vendors()[0], 8)
	b := NewDevice(testGeom(), Vendors()[1], 8)
	concA := concentration(flipsPerBitline(a, op, 6))
	concB := concentration(flipsPerBitline(b, op, 6))
	if concB <= concA+0.05 {
		t.Fatalf("vendor B bitline concentration %v not above vendor A %v", concB, concA)
	}
}

func TestPartitionsIsolateOperatingPoints(t *testing.T) {
	d := NewDevice(testGeom(), Vendors()[0], 9)
	if err := d.DefinePartitions(4); err != nil {
		t.Fatal(err)
	}
	if d.NumPartitions() != 4 {
		t.Fatalf("partitions %d", d.NumPartitions())
	}
	buf := make([]byte, d.Capacity())
	for i := range buf {
		buf[i] = 0xFF
	}
	d.Write(0, buf)
	// Partition 2 aggressive, others nominal.
	low := Nominal()
	low.VDD = 1.0
	if err := d.SetPartitionOp(2, low); err != nil {
		t.Fatal(err)
	}
	got := d.Read(0, d.Capacity())
	s2, e2 := d.PartitionRange(2)
	flipsIn, flipsOut := 0, 0
	for i := range got {
		if got[i] != 0xFF {
			if i >= s2 && i < e2 {
				flipsIn++
			} else {
				flipsOut++
			}
		}
	}
	if flipsOut != 0 {
		t.Fatalf("%d flips escaped the aggressive partition", flipsOut)
	}
	if flipsIn == 0 {
		t.Fatal("aggressive partition produced no flips")
	}
}

func TestDefinePartitionsRejectsBadCounts(t *testing.T) {
	d := NewDevice(testGeom(), Vendors()[0], 10)
	if err := d.DefinePartitions(3); err == nil {
		t.Fatal("3 does not divide 8 subarrays; expected error")
	}
	if err := d.SetPartitionOp(99, Nominal()); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestDeviceDeterminism(t *testing.T) {
	run := func() []byte {
		d := NewDevice(testGeom(), Vendors()[0], 42)
		buf := make([]byte, 4096)
		d.Write(0, buf)
		op := Nominal()
		op.VDD = 1.05
		d.SetOperatingPoint(op)
		return d.Read(0, 4096)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different flips at byte %d", i)
		}
	}
}

func TestConsecutiveReadsDiffer(t *testing.T) {
	// Errors are transient: two reads of the same location at stress should
	// not flip the identical set of bits.
	d := NewDevice(testGeom(), Vendors()[0], 11)
	buf := make([]byte, d.Capacity())
	d.Write(0, buf)
	op := Nominal()
	op.VDD = 1.02
	d.SetOperatingPoint(op)
	a := d.Read(0, d.Capacity())
	b := d.Read(0, d.Capacity())
	same := true
	flips := 0
	for i := range a {
		if a[i] != 0 {
			flips++
		}
		if a[i] != b[i] {
			same = false
		}
	}
	if flips == 0 {
		t.Fatal("no flips at aggressive voltage")
	}
	if same {
		t.Fatal("two reads produced identical error patterns")
	}
}

func TestStatsCount(t *testing.T) {
	d := NewDevice(testGeom(), Vendors()[0], 12)
	buf := make([]byte, 1000)
	d.Write(0, buf)
	d.Read(0, 1000)
	bits, flips := d.Stats()
	if bits != 8000 {
		t.Fatalf("readBits = %d, want 8000", bits)
	}
	if flips != 0 {
		t.Fatalf("nominal read injected %d flips", flips)
	}
}

func TestVendorByName(t *testing.T) {
	v, err := VendorByName("B")
	if err != nil || v.Name != "B" {
		t.Fatalf("VendorByName(B) = %v, %v", v, err)
	}
	if _, err := VendorByName("Z"); err == nil {
		t.Fatal("unknown vendor accepted")
	}
}

func TestExpectedBERShape(t *testing.T) {
	v := Vendors()[0]
	nominal := v.ExpectedBER(Nominal())
	if nominal > 1e-8 {
		t.Fatalf("nominal BER %v too high", nominal)
	}
	op := Nominal()
	op.VDD = 1.0
	if ber := v.ExpectedBER(op); ber < 0.01 {
		t.Fatalf("BER at 1.0V = %v, expected percent scale (paper Table 3)", ber)
	}
	op = Nominal()
	op.Timing.TRCD = 6.5
	if ber := v.ExpectedBER(op); ber < 0.01 || ber > 0.2 {
		t.Fatalf("BER at 6.5ns = %v, expected a few percent (paper Table 3)", ber)
	}
	// Above nominal voltage, BER stays at the floor.
	op = Nominal()
	op.VDD = 1.5
	if ber := v.ExpectedBER(op); ber > 1e-8 {
		t.Fatalf("BER above nominal voltage = %v", ber)
	}
	if math.IsNaN(v.ExpectedBER(op)) {
		t.Fatal("NaN BER")
	}
}

// TestAccessorsRejectOutOfRange: Read and Write name the offending range instead of failing on a slice bound.
func TestAccessorsRejectOutOfRange(t *testing.T) {
	d := NewDevice(testGeom(), Vendors()[0], 1)
	end := d.Capacity()
	for name, access := range map[string]func(){
		"read":     func() { d.Read(end-4, 8) },
		"write":    func() { d.Write(end-4, make([]byte, 8)) },
		"negative": func() { d.Read(-1, 2) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "dram: ") || !strings.Contains(msg, "out of range") {
					t.Errorf("%s: panic %q, want a dram range message", name, msg)
				}
			}()
			access()
		}()
	}
}
