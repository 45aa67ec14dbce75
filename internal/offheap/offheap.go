// Package offheap hands out float64 scratch (Alloc) and byte buffers
// (AllocBytes) whose lifetime their owner knows: a buffer that is born and freed at known points of the
// program, not when the collector next runs. On Linux it maps the
// buffer outside the Go heap, so the buffer neither counts towards the
// live heap that sets the collector's next goal (twice the live heap)
// nor stays resident once freed. Everywhere else, and in every build
// with the race detector — which shadows only memory the Go runtime
// manages, so scratch it must watch has to live on the heap — Alloc is
// make and Free (FreeBytes) does nothing.
//
// A buffer must be freed exactly once, by its owner, after the last
// read of it and of anything that aliases it: on Linux a read after
// Free faults.
package offheap

import "sync/atomic"

// inUse is the bytes mapped and not yet freed; peak its most since the
// last ResetPeak.
var inUse, peak atomic.Int64

// InUse returns the bytes Alloc has mapped outside the Go heap and Free
// has not yet released. It is 0 whenever Mapped is false.
func InUse() int64 { return inUse.Load() }

// ResetPeak returns the most bytes in use at once since the previous
// call (or since the program started) and restarts the count from the
// bytes in use now.
func ResetPeak() int64 { return peak.Swap(inUse.Load()) }

// count adds delta bytes to the mapped total and raises the peak.
func count(delta int64) {
	now := inUse.Add(delta)
	for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
	}
}
