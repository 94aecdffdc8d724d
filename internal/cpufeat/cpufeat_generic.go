//go:build !amd64

package cpufeat

// X86 is empty: this architecture has no assembly kernels.
var X86 Features
