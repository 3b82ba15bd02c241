//go:build race

package sweep

// raceSlowdown scales the wall-clock bounds of tests that time simulated
// cycles: the race detector makes a cycle about ten times slower.
const raceSlowdown = 20
