// Negative fixtures for the panicfree analyzer: this fixture package's
// import path ends in /internal/matrix, so Panicf and the check*
// helpers are designated invariant helpers and may panic.
package matrix

import (
	"errors"
	"fmt"
)

// Panicf mirrors the real matrix.Panicf designated helper.
func Panicf(format string, args ...interface{}) {
	panic(fmt.Sprintf(format, args...))
}

func checkIndex(i, n int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("index %d out of range %d", i, n))
	}
}

// At routes its invariant through a designated helper: not flagged.
func At(xs []float64, i int) float64 {
	checkIndex(i, len(xs))
	return xs[i]
}

// Get returns an error instead of panicking: the preferred pattern.
func Get(xs []float64, i int) (float64, error) {
	if i < 0 || i >= len(xs) {
		return 0, errors.New("index out of range")
	}
	return xs[i], nil
}

// shadowed calls a local function named panic, not the builtin.
func shadowed() {
	panic := func(s string) {}
	panic("not the builtin")
}

// checkAll panics inside a closure; the waiver belongs to the outermost
// declaration, so a check* helper's closures are waived too.
func checkAll(xs []int, n int) {
	each := func(i int) {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("index %d out of range %d", i, n))
		}
	}
	for _, i := range xs {
		each(i)
	}
}
