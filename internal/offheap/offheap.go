// Package offheap hands out float64 scratch (Alloc) and byte buffers
// (ReserveBytes, GrowBytes) whose lifetime their owner knows: a buffer
// that is born and freed at known points of the program, not when the
// collector next runs. On Linux it maps the buffer outside the Go heap,
// so the buffer neither counts towards the live heap that sets the
// collector's next goal (twice the live heap) nor stays resident once
// freed. Everywhere else, and in every build with the race detector —
// which shadows only memory the Go runtime manages, so scratch it must
// watch has to live on the heap — Alloc is make, GrowBytes copies into
// a new heap buffer, and Free (FreeBytes) does nothing.
//
// A byte buffer whose final length is known but whose bytes arrive
// over time (a frame body off a socket) is reserved at that length
// (ReserveBytes) and made usable a prefix at a time (GrowBytes): on
// Linux the range is mapped inaccessible and each growth opens the next
// pages in place, so the bytes never move, no page is faulted twice,
// and InUse counts only the usable prefix. Elsewhere each growth is a
// heap copy.
//
// A buffer must be freed exactly once, by its owner, after the last
// read of it and of anything that aliases it. A read after Free is a
// bug that nothing here catches: it faults only while the range stays
// unmapped, and the kernel hands a freed range straight back to the
// next mapping of its size, so a stale slice then reads another
// owner's bytes.
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

// Scratch is float64 scratch one owner reuses across solves, mapped at
// the largest length asked of it so far. Reserve(n) makes Buf at least
// n floats, unmapping the smaller buffer first; Free releases it. Buf
// is the slice a solve works in: a solve may grow it on the heap past
// the mapping, and the mapping is freed regardless.
type Scratch struct {
	Buf    []float64
	mapped []float64
}

// Reserve maps n floats in place of a smaller mapping; a mapping
// already that large is kept, with Buf as the last solve left it.
func (s *Scratch) Reserve(n int) {
	if n > len(s.mapped) {
		Free(s.mapped)
		s.mapped = Alloc(n)
		s.Buf = s.mapped
	}
}

// Free releases the mapping; the zero Scratch has none.
func (s *Scratch) Free() {
	Free(s.mapped)
	s.mapped, s.Buf = nil, nil
}
