package kernel

import (
	"runtime"
	"testing"
)

// setProcs sets GOMAXPROCS — since internal/par the only parallelism
// dial — for the rest of the test, and restores it on cleanup. Tests use
// it to force the fan-out on machines where the ambient value is 1 (the
// -race coverage of the block-pair work stealing depends on it) and the
// serial loop regardless of size.
func setProcs(t testing.TB, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
