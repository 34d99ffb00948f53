//go:build !race

package sched_test

const raceEnabled = false
