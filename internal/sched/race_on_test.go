//go:build race

package sched_test

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so tests that count steady-state allocations through a
// pooled path (lp's workspace) skip.
const raceEnabled = true
