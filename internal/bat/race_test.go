//go:build race

package bat

// raceEnabled reports a -race build, whose shadow allocations swamp tests
// that count allocations.
const raceEnabled = true
