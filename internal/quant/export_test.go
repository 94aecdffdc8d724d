package quant

// ForEachVecPath lets the external test package (which can import dnn,
// eden, serve and cluster) run the whole stack on both implementations of
// the codec primitives.
var ForEachVecPath = forEachVecPath
