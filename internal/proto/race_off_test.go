//go:build !race

package proto

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
