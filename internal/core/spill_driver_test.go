package core

import (
	"testing"

	"repro/internal/mapreduce"
)

// TestSpillEnabledDriversMatchInMemory is the out-of-core shuffle's
// label contract at the driver level: with Config.SpillBytes forcing
// the masters to spill map output to disk, the closure and shipped
// MapReduce drivers — over the Local executor and over TCP — must
// reproduce the in-memory driver's labels bit for bit.
func TestSpillEnabledDriversMatchInMemory(t *testing.T) {
	l := mixture(t, 200, 10, 3, 0.03, 31)
	base, err := Run(bg, Source{Points: l.Points}, Config{K: 3, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Both stages shuffle index lists — the record-carried source's
	// buckets are expanded into rows only as their reduce tasks are
	// dispatched — about 500 bytes of them here, so a 64-byte budget
	// forces many flushes while staying fast.
	cfg := Config{K: 3, Seed: 32, SpillBytes: 64}

	check := func(name string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range base.Labels {
			if res.Labels[i] != base.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, in-memory %d", name, i, res.Labels[i], base.Labels[i])
			}
		}
		if res.MapReduce == nil || res.MapReduce.SpillBytes == 0 {
			t.Fatalf("%s: expected spill counters, got %+v", name, res.MapReduce)
		}
	}

	sh, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, cfg))
	check("shipped/local", sh, err)

	m := loopbackCluster(t, 2)
	tcp, err := Run(bg, Source{Points: l.Points}, onExec(m, cfg))
	check("shipped/tcp", tcp, err)
}
