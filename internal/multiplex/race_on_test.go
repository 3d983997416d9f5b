//go:build race

package multiplex

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
