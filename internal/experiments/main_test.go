package experiments

import (
	"testing"

	"repro/internal/offheap/offheaptest"
)

// TestMain fails the suite if a run's bucket scratch or frames was left mapped.
func TestMain(m *testing.M) { offheaptest.Main(m) }
