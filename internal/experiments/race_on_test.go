//go:build race

package experiments

// raceEnabled reports whether this test binary was built with the race
// detector, which slows the wall-clock fusion ablation and adds nothing to
// a virtual-clock comparison.
const raceEnabled = true
