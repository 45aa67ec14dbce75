// Positive fixture for goroutine-guard's ownership rule: a compute
// package may not start goroutines, however well guarded — this is the
// hand-rolled worker pool internal/par replaced.
package kernel

import "sync"

func pool(n int, work func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { // want goroutine-guard "outside the packages that own goroutines"
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
}

func named() {
	go namedWorker() // want goroutine-guard "outside the packages that own goroutines"
}

func namedWorker() {}
