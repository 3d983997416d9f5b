//go:build !race

package recycle

// raceEnabled reports whether the race detector is compiled in; the test
// that counts on the stack outliving a collection skips under -race, where
// sync.Pool drops a random share of what it is given.
const raceEnabled = false
