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

// TestAllocBytesAccounting: the byte form maps, counts and frees like
// the float form, and the two never free each other's buffers.
func TestAllocBytesAccounting(t *testing.T) {
	base := InUse()
	for _, n := range []int{1, 5000, 3 << 20} {
		b := AllocBytes(n)
		if len(b) != n {
			t.Fatalf("AllocBytes(%d): len %d", n, len(b))
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("AllocBytes(%d)[%d] = %d, want 0", n, i, v)
			}
			b[i] = byte(i)
		}
		want := base
		if Mapped {
			want += int64(n)
		}
		if got := InUse(); got != want {
			t.Errorf("AllocBytes(%d): InUse %d, want %d", n, got, want)
		}
		FreeBytes(b[:n/2]) // a reslice of the buffer frees all of it
		if got := InUse(); got != base {
			t.Errorf("FreeBytes of %d bytes: InUse %d, want %d", n, got, base)
		}
	}
	f := Alloc(8)
	b := AllocBytes(64)
	FreeBytes(nil)
	FreeBytes(make([]byte, 4))
	Free(f)
	FreeBytes(b)
	if got := InUse(); got != base {
		t.Errorf("InUse %d after freeing both forms, want %d", got, base)
	}
}
