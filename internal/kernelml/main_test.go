package kernelml

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/offheap"
)

// TestMain fails the suite if a bucketed solve left scratch mapped:
// lsh.EachBucket frees what it maps before it returns.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := offheap.InUse(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d bytes of bucket scratch still mapped after the suite\n", n)
		code = 1
	}
	os.Exit(code)
}
