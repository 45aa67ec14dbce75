//go:build race

package offheap

const raceEnabled = true
