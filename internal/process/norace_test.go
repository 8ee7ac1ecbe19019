//go:build !race

package process_test

const raceEnabled = false
