//go:build race

package recycle

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
