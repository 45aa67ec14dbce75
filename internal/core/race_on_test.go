//go:build race

package core

// raceEnabled: the race detector drops sync.Pool items at random, so
// tests of what a pool retains skip under it.
const raceEnabled = true
