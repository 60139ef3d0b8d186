//go:build race

package search_test

// raceEnabled reports a -race build, whose runtime allocates on
// synchronization, so allocation counts there are not the program's.
const raceEnabled = true
