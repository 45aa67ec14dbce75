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
// Free and FreeBytes unmap exactly the []byte that Mmap returned. A
// byte mapping (a reservation) also records how many of its bytes are
// usable, and counted: the prefix GrowBytes has opened.
var (
	mappingsMu sync.Mutex
	floatMaps  = map[*float64][]byte{}
	byteMaps   = map[*byte]*byteMap{}
)

type byteMap struct {
	b      []byte
	usable int
}

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

// munmap releases a mapping of which counted bytes were counted.
func munmap(b []byte, counted int) {
	if err := syscall.Munmap(b); err != nil {
		panic("offheap: munmap: " + err.Error()) //lint:ignore panicfree b is exactly what Mmap returned and left the table once, so only a corrupted table fails here
	}
	count(-int64(counted))
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
		munmap(b, len(b))
	}
}

// FreeBytes is Free for a buffer ReserveBytes returned: the whole
// reservation, however far it grew.
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
		munmap(m.b, m.usable)
	}
}

// ReserveBytes reserves the address range of an n-byte buffer without
// making any of it usable: the result has length 0 and capacity n, and
// GrowBytes makes a prefix of it readable and writable. Nothing is
// counted, and no page is touched, until then. It returns nil if the
// kernel refuses the reservation, and GrowBytes then takes the heap.
func ReserveBytes(n int) []byte {
	if n <= 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	if len(b) >= hugePage {
		_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	}
	mappingsMu.Lock()
	byteMaps[&b[0]] = &byteMap{b: b}
	mappingsMu.Unlock()
	return b[:0]
}

// GrowBytes returns b grown to n bytes with its bytes kept. A buffer
// ReserveBytes returned (resliced from its start, n within its
// capacity) grows in place: the pages between its old and new length
// become usable, its contents never move and no page is faulted twice,
// and InUse counts exactly its usable bytes. Any other b — nil, or a
// heap buffer — is copied into a new heap buffer of n bytes, and so is
// a reservation the kernel refuses to grow, which is then released.
func GrowBytes(b []byte, n int) []byte {
	if cap(b) > 0 {
		p := &b[:1][0]
		mappingsMu.Lock()
		m, ok := byteMaps[p]
		mappingsMu.Unlock()
		if ok && n <= len(m.b) {
			if n <= m.usable {
				return m.b[:n]
			}
			page := syscall.Getpagesize()
			lo := min(len(m.b), (m.usable+page-1)/page*page)
			hi := min(len(m.b), (n+page-1)/page*page)
			if lo >= hi || syscall.Mprotect(m.b[lo:hi], syscall.PROT_READ|syscall.PROT_WRITE) == nil {
				count(int64(n - m.usable))
				m.usable = n
				return m.b[:n]
			}
			b = b[:m.usable]
			grown := make([]byte, n)
			copy(grown, b)
			FreeBytes(b)
			return grown
		}
	}
	grown := make([]byte, n)
	copy(grown, b)
	return grown
}
