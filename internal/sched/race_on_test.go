//go:build race

package sched

// raceEnabled reports whether the race detector instruments this build;
// allocation counts are only meaningful without it.
const raceEnabled = true
