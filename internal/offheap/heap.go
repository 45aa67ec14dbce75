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

// AllocBytes returns a zeroed buffer of n bytes from the heap.
func AllocBytes(n int) []byte {
	if n <= 0 {
		return nil
	}
	return make([]byte, n)
}

// FreeBytes leaves b to the collector.
func FreeBytes(b []byte) {}
