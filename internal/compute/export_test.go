package compute

// ForEachVecPath lets the external test package (which can import dnn) run
// whole networks on both implementations of the vector primitives.
var ForEachVecPath = forEachVecPath
