package offheap

import (
	"sync"
	"testing"
)

// TestAllocFreeAccounting: a buffer is n zeroed, writable float64s;
// while it lives InUse counts its 8·n bytes on a mapped build and
// nothing on a heap build; Free returns InUse to where it was, and the
// peak saw the buffer.
func TestAllocFreeAccounting(t *testing.T) {
	if raceEnabled && Mapped {
		t.Fatal("a race build maps scratch the detector cannot see")
	}
	ResetPeak()
	base := InUse()
	for _, n := range []int{1, 1000, 3 << 18} { // the last is 6 MiB, past the huge-page cutoff
		s := Alloc(n)
		if len(s) != n || cap(s) < n {
			t.Fatalf("Alloc(%d): len %d cap %d", n, len(s), cap(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("Alloc(%d)[%d] = %v, want 0", n, i, v)
			}
			s[i] = float64(i)
		}
		want := base
		if Mapped {
			want += 8 * int64(n)
		}
		if got := InUse(); got != want {
			t.Errorf("Alloc(%d): InUse %d, want %d", n, got, want)
		}
		Free(s)
		if got := InUse(); got != base {
			t.Errorf("Free of %d floats: InUse %d, want %d", n, got, base)
		}
		if got, want := ResetPeak(), want; got != want {
			t.Errorf("Alloc(%d): peak %d, want %d", n, got, want)
		}
	}
	if s := Alloc(0); s != nil {
		t.Errorf("Alloc(0) = %d floats, want nil", len(s))
	}
	Free(nil)
	Free(make([]float64, 4)) // a heap slice is the collector's
	if got := InUse(); got != base {
		t.Errorf("InUse %d after freeing nothing mapped, want %d", got, base)
	}
}

// TestConcurrentAllocFree: goroutines mapping and freeing at once keep
// the count exact, and the peak is at least every buffer at once.
func TestConcurrentAllocFree(t *testing.T) {
	const workers, rounds, n = 4, 50, 1 << 12
	ResetPeak()
	base := InUse()
	var wg, mapped sync.WaitGroup
	hold := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		mapped.Add(1)
		go func() {
			defer wg.Done()
			first := Alloc(n)
			mapped.Done()
			<-hold // every worker's first buffer is live at once
			Free(first)
			for r := 0; r < rounds; r++ {
				s := Alloc(n)
				s[n-1] = 1
				Free(s)
			}
		}()
	}
	mapped.Wait()
	close(hold)
	wg.Wait()
	if got := InUse(); got != base {
		t.Errorf("InUse %d after every buffer was freed, want %d", got, base)
	}
	if Mapped {
		if got, least := ResetPeak(), base+8*workers*n; got < least {
			t.Errorf("peak %d, want at least %d", got, least)
		}
	}
}

// TestReserveBytesGrowsInPlace: a reservation counts nothing until it
// grows; each growth keeps every byte already written, hands out the new
// ones zeroed, and on a mapped build never moves the buffer and counts
// exactly its usable prefix; FreeBytes releases it whole, from any
// reslice, and never a float buffer's; a growth of a heap buffer is a
// copy.
func TestReserveBytesGrowsInPlace(t *testing.T) {
	base := InUse()
	const n = 3<<20 + 123 // past the huge-page cutoff, not a whole page
	b := ReserveBytes(n)
	if Mapped && (len(b) != 0 || cap(b) != n) {
		t.Fatalf("ReserveBytes(%d): len %d cap %d", n, len(b), cap(b))
	}
	if got := InUse(); got != base {
		t.Fatalf("a bare reservation counts %d bytes", got-base)
	}
	var start *byte
	for _, size := range []int{1, 4095, 4096, 4097, 70000, 1 << 20, n} {
		prev := len(b)
		b = GrowBytes(b, size)
		if len(b) != size {
			t.Fatalf("GrowBytes to %d: len %d", size, len(b))
		}
		for i := 0; i < prev; i++ {
			if b[i] != byte(i*7+1) {
				t.Fatalf("growth to %d lost byte %d", size, i)
			}
		}
		for i := prev; i < size; i++ {
			if b[i] != 0 {
				t.Fatalf("growth to %d: new byte %d = %d, want 0", size, i, b[i])
			}
			b[i] = byte(i*7 + 1)
		}
		if !Mapped {
			continue
		}
		if start == nil {
			start = &b[0]
		} else if &b[0] != start {
			t.Fatalf("growth to %d moved the buffer", size)
		}
		if got := InUse() - base; got != int64(size) {
			t.Fatalf("growth to %d: InUse counts %d bytes", size, got)
		}
	}
	FreeBytes(b)
	if got := InUse(); got != base {
		t.Fatalf("%d bytes counted after the reservation was freed", got-base)
	}
	FreeBytes(ReserveBytes(4096)) // never grown
	r := GrowBytes(ReserveBytes(5000), 5000)
	f := Alloc(8)
	FreeBytes(nil)
	FreeBytes(make([]byte, 4)) // a heap slice is the collector's
	Free(f)                    // the two forms never free each other's buffers
	FreeBytes(r[:100])         // a reslice of the buffer frees all of it
	heap := []byte{1, 2, 3}
	if g := GrowBytes(heap, 5); len(g) != 5 || g[2] != 3 || &g[0] == &heap[0] {
		t.Fatalf("growing a heap buffer: %v", g)
	}
	if got := InUse(); got != base {
		t.Fatalf("InUse %d after freeing everything, want %d", got, base)
	}
}
