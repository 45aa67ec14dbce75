package emr

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestDFSPlacement(t *testing.T) {
	c, _ := NewCluster(8)
	dfs := c.NewDFS()
	nodes := dfs.Place("split-0", 1)
	if len(nodes) != 3 { // Table 2 replication factor
		t.Fatalf("replicas = %d, want 3", len(nodes))
	}
	seen := map[int]bool{}
	for _, n := range nodes {
		if n < 0 || n >= 8 || seen[n] {
			t.Fatalf("bad replica set %v", nodes)
		}
		seen[n] = true
	}
	// Idempotent.
	again := dfs.Place("split-0", 99)
	for i := range nodes {
		if nodes[i] != again[i] {
			t.Fatal("re-placing a split must be stable")
		}
	}
	if dfs.Holders("never") != nil {
		t.Fatal("unknown split must have no holders")
	}
}

func TestDFSReplicationClamped(t *testing.T) {
	c, _ := NewCluster(2) // fewer nodes than replication factor 3
	dfs := c.NewDFS()
	if got := len(dfs.Place("s", 1)); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
}

func TestScheduleLocalPrefersHolders(t *testing.T) {
	c, _ := NewCluster(4)
	dfs := c.NewDFS()
	var tasks []Task
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("split-%d", i)
		dfs.Place(id, int64(i))
		tasks = append(tasks, Task{Name: id, Cost: 1, MemoryBytes: 10, SplitID: id, InputBytes: 1000})
	}
	// Generous slack: everything can be placed locally.
	sched, err := c.ScheduleLocal(tasks, dfs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sched.LocalTasks != 32 || sched.RemoteTasks != 0 {
		t.Fatalf("local=%d remote=%d, want all local", sched.LocalTasks, sched.RemoteTasks)
	}
	if sched.NetworkBytes != 0 {
		t.Fatalf("network = %d, want 0", sched.NetworkBytes)
	}

	// Zero slack: locality only when the holder slot is also globally
	// least loaded; some remote reads appear but the makespan matches
	// plain LPT.
	strict, err := c.ScheduleLocal(tasks, dfs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if strict.LocalTasks+strict.RemoteTasks != 32 {
		t.Fatalf("accounting: %d+%d", strict.LocalTasks, strict.RemoteTasks)
	}
	if strict.NetworkBytes != int64(strict.RemoteTasks)*1000 {
		t.Fatalf("network bytes %d for %d remote tasks", strict.NetworkBytes, strict.RemoteTasks)
	}
	plain := c.ScheduleTasks(tasks)
	if strict.Makespan > plain.Makespan+1e-9 {
		t.Fatalf("zero-slack locality hurt makespan: %v vs %v", strict.Makespan, plain.Makespan)
	}
}

func TestScheduleLocalSlackTradeoff(t *testing.T) {
	// With a modest slack, locality improves markedly versus zero slack
	// at bounded makespan cost.
	c, _ := NewCluster(8)
	dfs := c.NewDFS()
	rng := rand.New(rand.NewSource(3))
	var tasks []Task
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("s%d", i)
		dfs.Place(id, int64(i))
		tasks = append(tasks, Task{Cost: 0.5 + rng.Float64(), MemoryBytes: 5, SplitID: id, InputBytes: 100})
	}
	strict, err := c.ScheduleLocal(tasks, dfs, 0)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := c.ScheduleLocal(tasks, dfs, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.LocalTasks <= strict.LocalTasks {
		t.Fatalf("slack did not improve locality: %d vs %d", relaxed.LocalTasks, strict.LocalTasks)
	}
	if relaxed.Makespan > strict.Makespan*1.6+1.5 {
		t.Fatalf("slack makespan blew up: %v vs %v", relaxed.Makespan, strict.Makespan)
	}
}

func TestScheduleLocalNoAffinityTasks(t *testing.T) {
	c, _ := NewCluster(2)
	dfs := c.NewDFS()
	tasks := []Task{{Cost: 1}, {Cost: 1}}
	sched, err := c.ScheduleLocal(tasks, dfs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sched.LocalTasks != 0 || sched.RemoteTasks != 0 || sched.NetworkBytes != 0 {
		t.Fatalf("affinity-free tasks must not be counted: %+v", sched)
	}
}

func TestScheduleLocalValidation(t *testing.T) {
	c, _ := NewCluster(2)
	if _, err := c.ScheduleLocal(nil, nil, 0); err == nil {
		t.Fatal("expected nil-DFS error")
	}
	if _, err := c.ScheduleLocal(nil, c.NewDFS(), -1); err == nil {
		t.Fatal("expected negative-slack error")
	}
}

// TestScheduleLocalWithoutAffinityIsScheduleTasks: tasks with no split
// get plain LPT from ScheduleLocal, whatever the slack.
func TestScheduleLocalWithoutAffinityIsScheduleTasks(t *testing.T) {
	c, _ := NewCluster(4)
	rng := rand.New(rand.NewSource(5))
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = Task{Cost: rng.Float64(), MemoryBytes: rng.Int63n(1000), DiskBytes: rng.Int63n(1000)}
	}
	want := c.ScheduleTasks(tasks)
	for _, slack := range []float64{0, 0.5} {
		got, err := c.ScheduleLocal(tasks, c.NewDFS(), slack)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("slack %v: ScheduleLocal %+v, ScheduleTasks %+v", slack, *got, *want)
		}
	}
}
