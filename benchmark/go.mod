// The benchmark is a module of its own so it builds and runs from its own
// directory; the module path sits under the repo's so internal/ packages
// stay importable.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
