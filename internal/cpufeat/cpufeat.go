// Package cpufeat reports which vector instruction sets the assembly
// kernels (internal/compute's axpy family, internal/quant's codec family)
// may use, and holds the one switch that turns them off. The module is
// hermetic — no golang.org/x/sys/cpu — so the probe is a few lines of
// assembly, run once at package initialization.
package cpufeat

// Features are the instruction sets a kernel can be selected on. A set is
// reported only when the CPU implements it and the operating system saves
// the registers it uses across context switches.
type Features struct {
	HasAVX  bool // 256-bit float operations (VMULPS, VADDPS, VDIVPS, ...)
	HasAVX2 bool // 256-bit integer operations (VPSLLD, VPMAXSD, ...); implies HasAVX
}

// Vec is the part of X86 the kernels run on, read once per kernel call:
// all of it, unless SetVec has turned the assembly off.
var Vec = X86

// SetVec makes every kernel run its assembly (on, where X86 has it) or its
// scalar body, the specification other architectures run (off), and
// returns the function that restores the previous setting. Like
// compute.SetDefault it is a test seam, the only writer of Vec: the program
// never calls it, a test hands the restore function to t.Cleanup, and no
// kernel may run while either is called.
func SetVec(on bool) (restore func()) {
	prev := Vec
	Vec = Features{}
	if on {
		Vec = X86
	}
	return func() { Vec = prev }
}
