//go:build race

package runtime

// raceEnabled reports whether this test binary was built with the race
// detector, under which the full-size models are too slow to build.
const raceEnabled = true
