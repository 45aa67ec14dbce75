package par

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs sets GOMAXPROCS for the rest of the test, restored on cleanup.
func setProcs(t testing.TB, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goid is the calling goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:").
func goid() int64 {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseInt(string(fields[1]), 10, 64)
	return id
}

// raise lifts peak to now if now is higher.
func raise(peak *atomic.Int32, now int32) {
	for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
	}
}

// requireBudgetIdle fails unless every helper has gone back to the
// budget, which Workers guarantees by the time it returns.
func requireBudgetIdle(t testing.TB) {
	t.Helper()
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helpers still out after the call returned", h)
	}
}

// TestEveryIndexOnce: each index is handed out exactly once whatever the
// limit and GOMAXPROCS, index 0 to the calling goroutine; worker never
// runs on more than min(GOMAXPROCS, limit, n) goroutines at a time, and
// every helper is back in the budget on return.
func TestEveryIndexOnce(t *testing.T) {
	self := goid()
	for _, procs := range []int{1, 2, 4, 8} {
		setProcs(t, procs)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, limit := range []int{-1, 0, 1, 2, 5, n, n + 3} {
				seen := make([]atomic.Int32, n)
				var live, peak atomic.Int32
				err := Workers(n, limit, func(next func() (int, bool)) error {
					defer live.Add(-1)
					raise(&peak, live.Add(1))
					for i, ok := next(); ok; i, ok = next() {
						seen[i].Add(1)
						if i == 0 && goid() != self {
							return errors.New("index 0 ran on a helper")
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("procs=%d n=%d limit=%d: %v", procs, n, limit, err)
				}
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("procs=%d n=%d limit=%d: index %d handed out %d times", procs, n, limit, i, c)
					}
				}
				if most := int32(max(1, min(procs, limit, n))); peak.Load() > most {
					t.Fatalf("procs=%d n=%d limit=%d: worker on %d goroutines at once, want at most %d", procs, n, limit, peak.Load(), most)
				}
				requireBudgetIdle(t)
			}
		}
	}
}

// TestNoGoroutineAtOneProc: at GOMAXPROCS=1 every body of a nested pair
// of loops runs on the calling goroutine.
func TestNoGoroutineAtOneProc(t *testing.T) {
	setProcs(t, 1)
	self := goid()
	err := Each(16, 16, func(int) error {
		return Each(16, 16, func(int) error {
			if g := goid(); g != self {
				return fmt.Errorf("body on goroutine %d, caller is %d", g, self)
			}
			if h := helpers.Load(); h != 0 {
				return fmt.Errorf("%d helpers out at GOMAXPROCS=1", h)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNestedStaysWithinBudget: under two levels of nesting the bodies in
// flight never exceed GOMAXPROCS — re-read at every call — and the
// budget is whole again afterwards.
func TestNestedStaysWithinBudget(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 3} {
		setProcs(t, procs)
		var live, peak atomic.Int32
		err := Each(12, 12, func(int) error {
			return Each(40, 40, func(int) error {
				raise(&peak, live.Add(1))
				time.Sleep(20 * time.Microsecond)
				live.Add(-1)
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); int(p) > procs {
			t.Fatalf("procs=%d: %d bodies in flight", procs, p)
		}
		requireBudgetIdle(t)
	}
}

// TestNestedCallFromHelperReturns: a helper that itself needs helpers
// must not wait for them. Item 0 keeps the caller busy until item 1 is
// done, so item 1 runs on the helper; its inner loop finds the budget
// empty at GOMAXPROCS=2 (the helper is the budget) and runs inline.
func TestNestedCallFromHelperReturns(t *testing.T) {
	for _, procs := range []int{2, 4} {
		setProcs(t, procs)
		self := goid()
		innerDone := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- Each(2, 2, func(i int) error {
				if i == 0 {
					<-innerDone
					return nil
				}
				defer close(innerDone)
				if goid() == self {
					return errors.New("item 1 ran on the caller")
				}
				var sum atomic.Int64
				err := Each(100, 100, func(j int) error { sum.Add(int64(j)); return nil })
				if err == nil && sum.Load() != 4950 {
					err = fmt.Errorf("inner loop summed %d", sum.Load())
				}
				return err
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("procs=%d: nested call from a helper did not return", procs)
		}
		requireBudgetIdle(t)
	}
}

// TestLowestFailingIndexWins: with several failing indices and randomly
// delayed bodies, the error is always the lowest one's, every index
// below it ran, and none is handed out twice.
func TestLowestFailingIndexWins(t *testing.T) {
	setProcs(t, 4)
	const n = 96
	failing := map[int]bool{17: true, 18: true, 40: true, 95: true}
	rng := rand.New(rand.NewSource(1))
	for rep := 0; rep < 300; rep++ {
		delay := make([]time.Duration, n)
		for i := range delay {
			delay[i] = time.Duration(rng.Intn(30)) * time.Microsecond
		}
		ran := make([]atomic.Int32, n)
		err := Each(n, 1+rep%n, func(i int) error {
			ran[i].Add(1)
			time.Sleep(delay[i])
			if failing[i] {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 17" {
			t.Fatalf("rep %d: got %v, want the error of index 17", rep, err)
		}
		for i := range ran {
			if c := ran[i].Load(); c > 1 || (i <= 17 && c != 1) {
				t.Fatalf("rep %d: index %d ran %d times", rep, i, c)
			}
		}
		requireBudgetIdle(t)
	}
}

// TestWorkerFailingBeforeFirstIndex: an error from a worker that never
// took an index outranks every index.
func TestWorkerFailingBeforeFirstIndex(t *testing.T) {
	setProcs(t, 4)
	setup := errors.New("setup")
	err := Workers(8, 8, func(next func() (int, bool)) error { return setup })
	if !errors.Is(err, setup) {
		t.Fatalf("got %v", err)
	}
	requireBudgetIdle(t)
}

// TestPerWorkerStateIsPrivate: state a worker creates is touched by that
// goroutine only — unsynchronized writes that -race would flag if two
// goroutines ever shared one — and there are at most limit of them.
func TestPerWorkerStateIsPrivate(t *testing.T) {
	setProcs(t, 4)
	const n, limit = 5000, 3
	var states atomic.Int32
	out := make([]int, n)
	err := Workers(n, limit, func(next func() (int, bool)) error {
		states.Add(1)
		var scratch [8]int // per-worker, deliberately unsynchronized
		for i, ok := next(); ok; i, ok = next() {
			scratch[i%8]++
			out[i] = i // slot i only
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := states.Load(); s < 1 || s > limit {
		t.Fatalf("%d worker states for limit %d", s, limit)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("slot %d not written", i)
		}
	}
}

// BenchmarkEachSerial is the cost par adds to a loop that runs on the
// caller alone (GOMAXPROCS=1, or a site below its cutoff).
func BenchmarkEachSerial(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		_ = Each(64, 1, func(j int) error { sink += j; return nil })
	}
	_ = sink
}
