//go:build !race

package store

// raceEnabled reports whether the race detector is active; see
// race_on_test.go.
const raceEnabled = false
