package cm2

// RefExecRoutine exports the reference interpreter (ref_test.go) to the
// external cm2_test package, whose whole-program differential drives it
// from hostvm hooks.
var RefExecRoutine = refExec
