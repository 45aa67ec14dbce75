package spectral

import (
	"testing"

	"repro/internal/offheap/offheaptest"
)

// TestMain fails the suite if a solve's scratch was left mapped.
func TestMain(m *testing.M) { offheaptest.Main(m) }
