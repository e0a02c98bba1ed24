//go:build race

package efs

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a quarter of what is Put into
// it: allocation ceilings that rest on a pooled call frame do not hold.
const raceEnabled = true
