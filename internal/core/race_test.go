//go:build race

package core

// raceEnabled reports a -race build, whose instrumented work swamps tests
// that measure CPU time.
const raceEnabled = true
