// Positive fixtures for the panicfree analyzer: this package sits under
// internal/ but is not internal/matrix, so every panic must be flagged.
package panicfree_pos

import "fmt"

func explode(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) // want panicfree "panic in library package"
	}
}

func inClosure(xs []int) func() {
	return func() {
		panic("closure panic") // want panicfree "panic in library package"
	}
}

// A package-level function literal has no declaration to waive it.
var explodeLater = func() {
	panic("package-level closure panic") // want panicfree "panic in library package"
}
