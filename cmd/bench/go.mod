// The benchmark command is a module of its own so that it carries its own
// build file; it builds against the repository it sits in.
module repro/cmd/bench

go 1.22

require repro v0.0.0

replace repro => ../..
