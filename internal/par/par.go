// Package par is the one compute fan-out of the repository and the one
// parallelism budget of the process. Every loop that spreads CPU work
// over goroutines — Gram blocks, k-means passes, signature blocks,
// bucket solves — is a call to Workers or Each; outside the MapReduce
// executors and the shard reader nothing else starts a goroutine
// (dasclint's goroutine-guard enforces it).
//
// The budget. The goroutine that calls Workers always runs the loop
// itself. On top of it the call may take helper goroutines from a
// process-wide budget of GOMAXPROCS−1 (read at every call) by a
// try-acquire that never blocks; a helper returns to the budget when it
// runs out of indices. So calls nest with no budget threaded through any
// signature and no way to deadlock: while a bucket pool holds the
// helpers, the Gram and k-means loops inside each bucket run inline;
// when the pool drains to one giant bucket, that bucket's next inner
// loop picks the freed helpers up. At GOMAXPROCS=1 no goroutine is ever
// started.
//
// The determinism contract. The caller fixes the decomposition: n items
// whose boundaries depend on the input alone, never on a worker count
// (par has none to offer). Item i writes only slot i of whatever the
// loop produces and reads nothing another item writes. Any reduction
// over the slots — a sum of block partials, "did any block change" —
// happens in the caller after the call returns, in index order. Then
// every output bit is the same however many helpers the call happened to
// get, which is timing-dependent by design.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the helper goroutines alive in the process.
var helpers atomic.Int64

// tryAcquire takes one helper from the budget, or reports that none is
// free. It never waits.
func tryAcquire() bool {
	budget := int64(runtime.GOMAXPROCS(0)) - 1
	for {
		h := helpers.Load()
		if h >= budget {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// loop is the state the goroutines of one Workers call share.
type loop struct {
	cursor atomic.Int64 // the next index not yet handed out
	stopAt atomic.Int64 // the lowest failing index so far; n while none
	mu     sync.Mutex   // orders writers of stopAt and err
	err    error        // the error of index stopAt
}

// run calls worker once on the current goroutine. Its first index is
// first when that is not negative, the cursor's otherwise.
func (l *loop) run(first int64, worker func(next func() (int, bool)) error) {
	held := int64(-1)
	err := worker(func() (int, bool) {
		i := first
		if first < 0 {
			i = l.cursor.Add(1) - 1
		}
		first = -1
		if i >= l.stopAt.Load() {
			return 0, false
		}
		held = i
		return int(i), true
	})
	if err == nil {
		return
	}
	l.mu.Lock()
	if held < l.stopAt.Load() {
		l.stopAt.Store(held)
		l.err = err
	}
	l.mu.Unlock()
}

// Workers hands the indices 0 … n−1 out, each once and in ascending
// order, to worker running on the calling goroutine and on as many
// helpers as the budget has free — at most limit goroutines in all. A
// limit of 1 or less is the serial loop on the caller: a site below its
// input-size cutoff passes 1 and keeps one copy of its body. Each
// goroutine calls worker once; worker sets up its own state — a scratch
// buffer, a heap — and loops
//
//	for i, ok := next(); ok; i, ok = next() { … }
//
// until next reports false, or returns early with the error of the index
// it was last handed. The caller is handed index 0, so the head of a
// longest-first order runs on the one goroutine that holds no helper.
//
// After a failure no index above the failing one is handed out, every
// index below it still completes, and Workers returns the error of the
// lowest failing index — the same one under any interleaving.
func Workers(n, limit int, worker func(next func() (int, bool)) error) error {
	if n <= 0 {
		return nil
	}
	l := &loop{}
	l.cursor.Store(1) // index 0 is the caller's
	l.stopAt.Store(int64(n))
	var wg sync.WaitGroup
	for h := min(limit, n) - 1; h > 0 && tryAcquire(); h-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1)
			l.run(-1, worker)
		}()
	}
	l.run(0, worker)
	wg.Wait()
	return l.err
}

// Each is Workers for a body that keeps no state between items: it calls
// body(i) for every index, and returns the error of the lowest failing
// one.
func Each(n, limit int, body func(i int) error) error {
	return Workers(n, limit, func(next func() (int, bool)) error {
		for i, ok := next(); ok; i, ok = next() {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	})
}
