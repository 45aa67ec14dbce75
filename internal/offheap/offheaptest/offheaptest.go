// Package offheaptest holds the TestMain of test packages whose code
// maps memory through internal/offheap.
package offheaptest

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/offheap"
)

// Main runs the suite and fails it if anything is still mapped at its
// end: every mapping's owner frees it when the buffer dies (a bucket
// loop's scratch when the loop returns, a fit's transposed rows once
// its hashers are built), so after the last test nothing may be in use.
func Main(m *testing.M) {
	code := m.Run()
	if n := offheap.InUse(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d bytes still mapped outside the Go heap after the suite\n", n)
		code = 1
	}
	os.Exit(code)
}
