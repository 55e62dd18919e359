//go:build !race

package store

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
