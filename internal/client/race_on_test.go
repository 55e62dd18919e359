//go:build race

package client

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
