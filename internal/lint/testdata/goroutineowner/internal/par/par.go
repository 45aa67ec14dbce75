// Negative fixture for goroutine-guard's ownership rule: the same pool
// in a package that owns goroutines is not flagged.
package par

import "sync"

func pool(n int, work func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
}
