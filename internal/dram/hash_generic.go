//go:build !amd64

package dram

// This architecture has no assembly kernel and runs the specification.
var belowMasks = belowMasksScalar
