package emr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultNodeConfigMatchesTable2(t *testing.T) {
	cfg := DefaultNodeConfig()
	if cfg.JobTrackerHeapMB != 768 || cfg.NameNodeHeapMB != 256 ||
		cfg.TaskTrackerHeapMB != 512 || cfg.DataNodeHeapMB != 256 ||
		cfg.MaxMapTasks != 4 || cfg.MaxReduceTasks != 2 ||
		cfg.ReplicationFactor != 3 {
		t.Fatalf("config diverged from Table 2: %+v", cfg)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	c, err := NewCluster(16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Slots() != 64 {
		t.Fatalf("16 nodes x 4 map slots = %d, want 64", c.Slots())
	}
}

func TestScheduleUniformTasks(t *testing.T) {
	c, _ := NewCluster(2) // 8 slots
	tasks := make([]Task, 16)
	for i := range tasks {
		tasks[i] = Task{Name: "t", Cost: 1, MemoryBytes: 100}
	}
	s := c.ScheduleTasks(tasks)
	// 16 unit tasks over 8 slots: makespan exactly 2.
	if s.Makespan != 2 {
		t.Fatalf("makespan = %v, want 2", s.Makespan)
	}
	if s.TotalMemory != 1600 {
		t.Fatalf("total memory = %d", s.TotalMemory)
	}
	// Each slot runs tasks sequentially, so per-slot peak is one task;
	// per node: 4 slots x 100.
	if s.PeakNodeMemory != 400 {
		t.Fatalf("peak node memory = %d, want 400", s.PeakNodeMemory)
	}
}

func TestScheduleLPTBeatsNaiveOnSkew(t *testing.T) {
	c := &Cluster{Nodes: 1, Config: NodeConfig{MaxMapTasks: 2}}
	// One big task and four small: LPT puts the big task alone.
	tasks := []Task{{Cost: 4}, {Cost: 1}, {Cost: 1}, {Cost: 1}, {Cost: 1}}
	s := c.ScheduleTasks(tasks)
	if s.Makespan != 4 {
		t.Fatalf("makespan = %v, want 4 (big task alone on one slot)", s.Makespan)
	}
}

func TestScheduleElasticityShape(t *testing.T) {
	// Table 3's key property: doubling nodes roughly halves the
	// makespan when tasks are plentiful, and memory stays flat.
	rng := rand.New(rand.NewSource(1))
	tasks := make([]Task, 512)
	for i := range tasks {
		tasks[i] = Task{Cost: 0.5 + rng.Float64(), MemoryBytes: 1000}
	}
	var prev float64
	for i, nodes := range []int{16, 32, 64} {
		c, _ := NewCluster(nodes)
		s := c.ScheduleTasks(tasks)
		if i > 0 {
			ratio := prev / s.Makespan
			if ratio < 1.7 || ratio > 2.3 {
				t.Fatalf("nodes %d: speedup %v, want ~2", nodes, ratio)
			}
		}
		prev = s.Makespan
		if s.TotalMemory != 512_000 {
			t.Fatalf("memory must not depend on node count")
		}
	}
}

func TestRunJobFlow(t *testing.T) {
	c, _ := NewCluster(2)
	flow := &JobFlow{
		Name: "dasc",
		Steps: []Step{
			{Name: "lsh", Tasks: []Task{{Cost: 1, MemoryBytes: 10}}},
			{Name: "cluster", Tasks: []Task{{Cost: 2, MemoryBytes: 30}, {Cost: 2, MemoryBytes: 20}}},
		},
	}
	rep, err := c.RunJobFlow(flow)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("steps = %d", len(rep.Steps))
	}
	if rep.TotalTime != 3 { // 1 + 2 (steps are barriers)
		t.Fatalf("total = %v, want 3", rep.TotalTime)
	}
	if rep.TotalMemory != 50 {
		t.Fatalf("total memory = %d, want 50", rep.TotalMemory)
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
}

func TestRunJobFlowValidation(t *testing.T) {
	c, _ := NewCluster(1)
	if _, err := c.RunJobFlow(nil); err == nil {
		t.Fatal("expected error for nil flow")
	}
	if _, err := c.RunJobFlow(&JobFlow{}); err == nil {
		t.Fatal("expected error for empty flow")
	}
}

func TestPropMakespanBounds(t *testing.T) {
	f := func(seed int64, nodesSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := int(nodesSeed%8) + 1
		c, err := NewCluster(nodes)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(60)
		tasks := make([]Task, n)
		var total, biggest float64
		for i := range tasks {
			cost := rng.Float64()*10 + 0.01
			tasks[i] = Task{Cost: cost}
			total += cost
			if cost > biggest {
				biggest = cost
			}
		}
		s := c.ScheduleTasks(tasks)
		lower := total / float64(c.Slots())
		if biggest > lower {
			lower = biggest
		}
		return s.Makespan >= lower-1e-9 && s.Makespan <= total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: more nodes never increases the LPT makespan.
func TestPropMonotoneInNodes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Cost: rng.Float64()*5 + 0.01}
		}
		prev := -1.0
		for _, nodes := range []int{1, 2, 4, 8} {
			c, _ := NewCluster(nodes)
			ms := c.ScheduleTasks(tasks).Makespan
			if prev >= 0 && ms > prev+1e-9 {
				return false
			}
			prev = ms
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
