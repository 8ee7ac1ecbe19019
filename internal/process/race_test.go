//go:build race

package process_test

// raceEnabled skips the reference run on the 65k-state router, which
// is slow under the race detector.
const raceEnabled = true
