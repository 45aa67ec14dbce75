//go:build !linux || race

package offheap

// Mapped reports whether Alloc maps memory outside the Go heap.
const Mapped = false

// Alloc returns a zeroed buffer of n float64s from the heap.
func Alloc(n int) []float64 {
	if n <= 0 {
		return nil
	}
	return make([]float64, n)
}

// Free leaves s to the collector.
func Free(s []float64) {}

// FreeBytes leaves b to the collector.
func FreeBytes(b []byte) {}

// ReserveBytes reserves nothing on the heap: GrowBytes allocates.
func ReserveBytes(n int) []byte { return nil }

// GrowBytes returns a new heap buffer of n bytes holding b's bytes.
func GrowBytes(b []byte, n int) []byte {
	grown := make([]byte, n)
	copy(grown, b)
	return grown
}
