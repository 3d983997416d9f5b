//go:build !race

package experiments

// raceEnabled reports whether the race detector is compiled in; the
// simulation-heavy golden test skips itself under it.
const raceEnabled = false
