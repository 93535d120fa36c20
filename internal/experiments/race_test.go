//go:build race

package experiments

// raceEnabled reports whether the race detector is on. It makes
// sync.Pool drop released objects at random, so tests of pool reuse
// cannot hold.
const raceEnabled = true
