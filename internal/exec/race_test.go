//go:build race

package exec

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops items at random, so allocation counts of pooled paths vary.
const raceEnabled = true
