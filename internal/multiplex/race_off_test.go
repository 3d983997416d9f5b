//go:build !race

package multiplex

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip under -race (the detector instruments allocations
// and would fail them spuriously).
const raceEnabled = false
