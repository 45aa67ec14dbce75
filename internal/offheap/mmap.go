//go:build linux && !race

package offheap

import (
	"sync"
	"syscall"
	"unsafe"
)

// Mapped reports whether Alloc maps memory outside the Go heap.
const Mapped = true

// hugePage is the transparent huge page size with 4 KiB base pages
// (amd64, most arm64): a mapping this large is asked for huge pages,
// which cut its first-touch faults 512-fold.
const hugePage = 2 << 20

// The live mappings by the first element of the view handed out, so
// Free and FreeBytes unmap exactly the []byte that Mmap returned.
var (
	mappingsMu sync.Mutex
	floatMaps  = map[*float64][]byte{}
	byteMaps   = map[*byte][]byte{}
)

// mmap maps n zeroed bytes and counts them, or returns nil if the
// kernel refuses.
func mmap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	if len(b) >= hugePage {
		// Advice only: a kernel without transparent huge pages maps
		// the buffer in base pages.
		_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	}
	count(int64(len(b)))
	return b
}

// munmap releases a mapping mmap returned.
func munmap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("offheap: munmap: " + err.Error()) //lint:ignore panicfree b is exactly what Mmap returned and left the table once, so only a corrupted table fails here
	}
	count(-int64(len(b)))
}

// Alloc returns a zeroed buffer of n float64s. If the kernel refuses
// the mapping, the buffer comes from the heap, which Free then leaves
// to the collector.
func Alloc(n int) []float64 {
	if n <= 0 {
		return nil
	}
	b := mmap(8 * n)
	if b == nil {
		return make([]float64, n)
	}
	// The one unsafe conversion in the module: the mapping's bytes seen
	// as the float64s they hold. Mmap returns page-aligned memory.
	s := unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	mappingsMu.Lock()
	floatMaps[&s[0]] = b
	mappingsMu.Unlock()
	return s
}

// Free releases a buffer Alloc returned; s may be resliced but must
// start where Alloc's buffer started. A nil buffer, or one Alloc took
// from the heap, is left alone.
func Free(s []float64) {
	if cap(s) == 0 {
		return
	}
	p := &s[:1][0]
	mappingsMu.Lock()
	b, ok := floatMaps[p]
	delete(floatMaps, p)
	mappingsMu.Unlock()
	if ok {
		munmap(b)
	}
}

// AllocBytes is Alloc for a buffer of n bytes.
func AllocBytes(n int) []byte {
	if n <= 0 {
		return nil
	}
	b := mmap(n)
	if b == nil {
		return make([]byte, n)
	}
	mappingsMu.Lock()
	byteMaps[&b[0]] = b
	mappingsMu.Unlock()
	return b
}

// FreeBytes is Free for a buffer AllocBytes returned.
func FreeBytes(b []byte) {
	if cap(b) == 0 {
		return
	}
	p := &b[:1][0]
	mappingsMu.Lock()
	m, ok := byteMaps[p]
	delete(byteMaps, p)
	mappingsMu.Unlock()
	if ok {
		munmap(m)
	}
}
