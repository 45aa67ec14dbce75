package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/emr"
)

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSchedulerPinned pins the EMR simulator's two schedulers through
// what the artifacts print: the Locality table's text (split-affinity
// LPT on the DFS model) and plain LPT on 500 seeded tasks (Table 3's
// scheduler). A refactor of the scheduling loop must reproduce both; a
// change that moves one on purpose re-pins it and says why.
func TestSchedulerPinned(t *testing.T) {
	loc, err := Locality(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fnvHex([]byte(loc.String())), "e41f78264b827cbc"; got != want {
		t.Errorf("Locality(Quick) text hash %s, want %s\n%s", got, want, loc)
	}

	rng := rand.New(rand.NewSource(44))
	tasks := make([]emr.Task, 500)
	for i := range tasks {
		tasks[i] = emr.Task{
			Cost:        0.1 + 10*rng.Float64(),
			MemoryBytes: rng.Int63n(1 << 30),
			DiskBytes:   rng.Int63n(1 << 26),
		}
	}
	cluster, err := emr.NewCluster(16)
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.ScheduleTasks(tasks)
	var b []byte
	for _, w := range []uint64{math.Float64bits(s.Makespan), uint64(s.PeakNodeMemory), uint64(s.TotalMemory), uint64(s.TotalDiskBytes)} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	if got, want := fnvHex(b), "50aa08cde6916dc2"; got != want {
		t.Errorf("ScheduleTasks hash %s (makespan %v), want %s", got, s.Makespan, want)
	}
}
