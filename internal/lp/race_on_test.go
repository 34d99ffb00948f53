//go:build race

package lp

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so tests that count steady-state allocations through the
// pooled workspace skip.
const raceEnabled = true
