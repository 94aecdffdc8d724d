package softmc

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/errormodel"
	"repro/internal/parallel"
)

func smallGeom() dram.Geometry {
	return dram.Geometry{Banks: 2, SubarraysPerBank: 4, RowsPerSubarray: 8, RowBytes: 128}
}

func TestMeasureBERNominalIsZero(t *testing.T) {
	d := dram.NewDevice(smallGeom(), dram.Vendors()[0], 1)
	ber := MeasureBER(d, dram.Nominal(), 0xAA, 2)
	if ber != 0 {
		t.Fatalf("nominal BER = %v", ber)
	}
}

func TestMeasureBERTracksExpectation(t *testing.T) {
	vendor := dram.Vendors()[0]
	d := dram.NewDevice(smallGeom(), vendor, 2)
	op := dram.Nominal()
	op.VDD = 1.05
	got := MeasureBER(d, op, 0xAA, 6)
	want := vendor.ExpectedBER(op)
	if got < want/3 || got > want*3 {
		t.Fatalf("measured %v, expected near %v", got, want)
	}
}

func TestCharacterizeProfileShape(t *testing.T) {
	d := dram.NewDevice(smallGeom(), dram.Vendors()[0], 3)
	op := dram.Nominal()
	op.VDD = 1.05
	prof := Characterize(d, op, CharacterizeConfig{Reads: 3, MaxRows: 16})
	if prof.RowBits != 128*8 {
		t.Fatalf("RowBits = %d", prof.RowBits)
	}
	if len(prof.Cells) != 16*128*8 {
		t.Fatalf("cells = %d, want %d", len(prof.Cells), 16*128*8)
	}
	// Every cell should have been read under both polarities across the
	// four default patterns.
	c := prof.Cells[0]
	if c.OnesReads == 0 || c.ZerosReads == 0 {
		t.Fatalf("cell lacks polarity coverage: %+v", c)
	}
	if prof.MeasuredBER() == 0 {
		t.Fatal("stressed profile observed no errors")
	}
}

func TestCharacterizeThenFitMatchesDeviceBER(t *testing.T) {
	vendor := dram.Vendors()[0]
	d := dram.NewDevice(smallGeom(), vendor, 4)
	op := dram.Nominal()
	op.VDD = 1.03
	prof := Characterize(d, op, CharacterizeConfig{Reads: 4})
	m := errormodel.Select(prof, 99)
	deviceBER := vendor.ExpectedBER(op)
	if got := m.AggregateBER(); got < deviceBER/4 || got > deviceBER*4 {
		t.Fatalf("fitted model BER %v vs device %v", got, deviceBER)
	}
}

func TestVendorSelectionMatchesStructure(t *testing.T) {
	// Vendor A's uniform errors should select Model 0; vendor B's bitline
	// structure should select Model 1; vendor C's wordline structure
	// Model 2. This reproduces the paper's premise that different devices
	// need different models (§4).
	op := dram.Nominal()
	op.VDD = 1.02
	cases := []struct {
		vendor string
		want   errormodel.Kind
	}{
		{"A", errormodel.Model0},
		{"B", errormodel.Model1},
		{"C", errormodel.Model2},
	}
	for _, c := range cases {
		v, _ := dram.VendorByName(c.vendor)
		d := dram.NewDevice(smallGeom(), v, 5)
		prof := Characterize(d, op, CharacterizeConfig{Reads: 6})
		m := errormodel.Select(prof, 5)
		if m.Kind != c.want {
			t.Errorf("vendor %s selected %v, want %v", c.vendor, m.Kind, c.want)
		}
	}
}

func TestPartitionBERRespectsOperatingPoints(t *testing.T) {
	d := dram.NewDevice(smallGeom(), dram.Vendors()[0], 6)
	if err := d.DefinePartitions(4); err != nil {
		t.Fatal(err)
	}
	low := dram.Nominal()
	low.VDD = 1.02
	mid := dram.Nominal()
	mid.VDD = 1.15
	d.SetPartitionOp(1, mid)
	d.SetPartitionOp(3, low)
	bers := PartitionBER(d, 0xAA, 4)
	if len(bers) != 4 {
		t.Fatalf("got %d partition BERs", len(bers))
	}
	if bers[0] != 0 || bers[2] != 0 {
		t.Fatalf("nominal partitions show errors: %v", bers)
	}
	if !(bers[3] > bers[1] && bers[1] > 0) {
		t.Fatalf("partition BERs not ordered by aggressiveness: %v", bers)
	}
}

func TestProfilingCostScale(t *testing.T) {
	// A 16-bank 4GB DDR4 module should profile in minutes, not hours — the
	// paper reports under 4 minutes (§6.2).
	big := dram.Geometry{Banks: 16, SubarraysPerBank: 64, RowsPerSubarray: 512, RowBytes: 8192}
	secs := ProfilingCost(big, CharacterizeConfig{Reads: 4}, dram.NominalTiming())
	if secs < 10 || secs > 600 {
		t.Fatalf("profiling cost %v s, expected minutes scale", secs)
	}
	// Smaller modules must profile faster.
	small := ProfilingCost(smallGeom(), CharacterizeConfig{Reads: 4}, dram.NominalTiming())
	if small >= secs {
		t.Fatal("smaller module did not profile faster")
	}
}

func TestMeasureBERDataPatternOrdering(t *testing.T) {
	// With voltage stress, patterns with more 1s should see higher BER
	// (Fig. 5 top-row behaviour). With row inversion half the module holds
	// the inverse, so compare 0xFF against 0xAA-style balance is washed;
	// instead compare one-heavy vs zero-heavy within the same read without
	// inversion bias by using ExpectedBER ordering as reference.
	vendor := dram.Vendors()[0]
	d := dram.NewDevice(smallGeom(), vendor, 7)
	op := dram.Nominal()
	op.VDD = 1.04
	berFF := MeasureBER(d, op, 0xFF, 6)
	berAA := MeasureBER(d, op, 0xAA, 6)
	// Inverted-row layout makes both patterns half ones; rates should be
	// similar (within noise), and both nonzero.
	if berFF == 0 || berAA == 0 {
		t.Fatal("no errors under stress")
	}
	if math.Abs(math.Log(berFF/berAA)) > math.Log(3) {
		t.Fatalf("balanced patterns diverge too much: %v vs %v", berFF, berAA)
	}
}

// TestRowLoopsWorkerInvariant runs the three row sweeps at several worker
// counts on identically built devices and demands the same measurements and
// the same device state afterwards: ReadRows assigns every row-read the
// access-counter value its place in the serial order gives it, so the
// fan-out must not show.
func TestRowLoopsWorkerInvariant(t *testing.T) {
	prev := parallel.Workers()
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	op := dram.Nominal()
	op.VDD = 1.05
	type outcome struct {
		profile       *errormodel.Profile
		ber           float64
		parts         []float64
		bits, flips   uint64
		storedPattern []byte
	}
	run := func(workers int) outcome {
		parallel.SetWorkers(workers)
		d := dram.NewDevice(smallGeom(), dram.Vendors()[1], 8)
		var o outcome
		o.profile = Characterize(d, op, CharacterizeConfig{Reads: 3, MaxRows: 24})
		o.ber = MeasureBER(d, op, 0xCC, 2)
		if err := d.DefinePartitions(4); err != nil {
			t.Fatal(err)
		}
		for p, vdd := range []float64{1.35, 1.12, 1.05, 1.0} {
			pop := dram.Nominal()
			pop.VDD = vdd
			if err := d.SetPartitionOp(p, pop); err != nil {
				t.Fatal(err)
			}
		}
		o.parts = PartitionBER(d, 0xAA, 3)
		o.bits, o.flips = d.Stats()
		// One more plain read: its draw depends on the access counter the
		// sweeps left behind.
		o.storedPattern = d.Read(0, d.Capacity())
		return o
	}
	want := run(1)
	if want.flips == 0 || want.profile.MeasuredBER() == 0 {
		t.Fatal("the sweeps observed no errors")
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: BER %v parts %v stats (%d, %d); one worker: BER %v parts %v stats (%d, %d) (profiles equal: %v)",
				workers, got.ber, got.parts, got.bits, got.flips, want.ber, want.parts, want.bits, want.flips,
				reflect.DeepEqual(got.profile, want.profile))
		}
	}
}

// TestCharacterizeCountsPastUint16 profiles two rows with enough reads that
// a bit set in three of the four default patterns is read holding a 1 more
// than 65535 times — where the 16-bit counters of old wrapped, silently
// corrupting the fit.
func TestCharacterizeCountsPastUint16(t *testing.T) {
	geom := dram.Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 2, RowBytes: 8}
	d := dram.NewDevice(geom, dram.Vendors()[0], 3)
	op := dram.Nominal()
	op.VDD = 1.05
	const reads = 22000 // 3 × 22000 = 66000 > 65535
	prof := Characterize(d, op, CharacterizeConfig{Reads: reads})
	var flips uint64
	for i, c := range prof.Cells {
		if c.OnesReads+c.ZerosReads != 4*reads {
			t.Fatalf("cell %d: %d + %d reads, want %d", i, c.OnesReads, c.ZerosReads, 4*reads)
		}
		if c.OnesFlips > c.OnesReads || c.ZerosFlips > c.ZerosReads {
			t.Fatalf("cell %d flipped more often than it was read: %+v", i, c)
		}
		flips += uint64(c.OnesFlips) + uint64(c.ZerosFlips)
	}
	// Bit 3 of an even row holds a 1 under 0xFF, 0xCC and 0xAA.
	if c := prof.Cells[3]; c.OnesReads != 3*reads {
		t.Fatalf("cell 3 read holding a 1 %d times, want %d", c.OnesReads, 3*reads)
	}
	if _, deviceFlips := d.Stats(); flips != deviceFlips {
		t.Fatalf("profile counts %d flips, the device injected %d", flips, deviceFlips)
	}
	want := dram.Vendors()[0].ExpectedBER(op)
	if got := prof.MeasuredBER(); got < want/3 || got > want*3 {
		t.Fatalf("measured BER %v, expected near %v", got, want)
	}
}
