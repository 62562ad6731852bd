//go:build race

package edgemeg

// raceEnabled reports a -race build. Allocation counts differ there:
// slices.Grow, for one, allocates a temporary besides the grown slice.
const raceEnabled = true
