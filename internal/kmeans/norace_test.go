//go:build !race

package kmeans

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
