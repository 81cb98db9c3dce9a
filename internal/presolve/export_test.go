package presolve

// Arm exposes arm to the external tests, which pin it against the solver.
var Arm = arm
