//go:build race

package compress

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
