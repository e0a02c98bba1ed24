//go:build race

package store

// raceEnabled reports that this test binary was built with the race
// detector, which changes what an allocation costs: heap footprints
// measured under it mean nothing.
const raceEnabled = true
