package lsh

import (
	"testing"

	"repro/internal/offheap/offheaptest"
)

// TestMain fails the suite if a fit's transposed rows or a bucket loop's scratch was left mapped.
func TestMain(m *testing.M) { offheaptest.Main(m) }
