//go:build race

package kmeans

// raceEnabled reports a race-detector build. sync.Pool then drops a random
// share of its Puts, so allocation counts are not reproducible.
const raceEnabled = true
