//go:build !race

package sweep

const raceSlowdown = 1
