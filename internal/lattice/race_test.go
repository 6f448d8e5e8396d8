//go:build race

package lattice

const raceEnabled = true
