//go:build !race

package edgemeg

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
