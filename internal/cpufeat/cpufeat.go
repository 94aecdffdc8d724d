// Package cpufeat reports which vector instruction sets the assembly
// kernels (internal/compute's axpy family, internal/quant's codec family)
// may use. The module is hermetic — no golang.org/x/sys/cpu — so the probe
// is a few lines of assembly, run once at package initialization; the
// kernel packages read X86 in their own variable initializers, which the
// import order guarantees run after it.
package cpufeat

// Features are the instruction sets a kernel can be selected on. A set is
// reported only when the CPU implements it and the operating system saves
// the registers it uses across context switches.
type Features struct {
	HasAVX  bool // 256-bit float operations (VMULPS, VADDPS, VDIVPS, ...)
	HasAVX2 bool // 256-bit integer operations (VPSLLD, VPMAXSD, ...); implies HasAVX
}
