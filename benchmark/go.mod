// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the module path keeps it inside the
// repro/ import tree, which is what lets it import repro/internal/...
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
