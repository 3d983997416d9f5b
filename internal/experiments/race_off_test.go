//go:build !race

package experiments

// raceEnabled reports whether the race detector is compiled in; the heavy
// figures of TestFigures skip themselves under it.
const raceEnabled = false
