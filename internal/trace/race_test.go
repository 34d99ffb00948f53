//go:build race

package trace

// raceEnabled reports a -race build, whose instrumentation adds
// allocations that the allocation ceilings were not measured with.
const raceEnabled = true
