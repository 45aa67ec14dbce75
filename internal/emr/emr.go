// Package emr simulates the Amazon Elastic MapReduce deployment of the
// paper's §5.1: a cluster of nodes with task slots (Table 2) and job
// flows made of steps. The simulator schedules real task workloads
// (e.g. DASC's per-bucket spectral clustering, with costs measured or
// modeled from bucket sizes) onto n nodes with an LPT greedy scheduler
// and reports the simulated makespan and memory footprint — reproducing
// the elasticity behaviour of Table 3 without renting a cluster.
package emr

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// NodeConfig mirrors the Hadoop configuration of Table 2 plus the
// m1.small instance geometry of §5.1.
type NodeConfig struct {
	JobTrackerHeapMB  int
	NameNodeHeapMB    int
	TaskTrackerHeapMB int
	DataNodeHeapMB    int
	MaxMapTasks       int
	MaxReduceTasks    int
	ReplicationFactor int
	MemoryMB          int
	DiskGB            int
}

// DefaultNodeConfig returns the exact values of Table 2 (and the
// 1.7 GB / 350 GB m1.small geometry from §5.1).
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		JobTrackerHeapMB:  768,
		NameNodeHeapMB:    256,
		TaskTrackerHeapMB: 512,
		DataNodeHeapMB:    256,
		MaxMapTasks:       4,
		MaxReduceTasks:    2,
		ReplicationFactor: 3,
		MemoryMB:          1700,
		DiskGB:            350,
	}
}

// Task is one schedulable unit of work.
type Task struct {
	// Name identifies the task in reports.
	Name string
	// Cost is the simulated execution time in seconds on one slot,
	// including any disk time the flow builder folded in for DiskBytes.
	Cost float64
	// MemoryBytes is the task's resident footprint while running.
	MemoryBytes int64
	// DiskBytes is the task's local-disk traffic: spill-run writes plus
	// re-reads and demand-read input shard bytes. Flow builders fold the
	// corresponding transfer time into Cost; the scheduler aggregates
	// the bytes so reports can separate I/O volume from compute.
	DiskBytes int64
	// SplitID names the DFS split the task reads; empty means no input
	// affinity (e.g. a reducer reading shuffled data). Only ScheduleLocal
	// reads it.
	SplitID string
	// InputBytes is the split size ScheduleLocal charges to the network
	// when it places the task on a node without a replica.
	InputBytes int64
}

// Cluster is a simulated elastic cluster.
type Cluster struct {
	// Nodes is the instance count (the paper uses 16, 32, 64).
	Nodes int
	// Config is the per-node configuration.
	Config NodeConfig
}

// NewCluster builds a cluster of n nodes with the Table 2 configuration.
func NewCluster(n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("emr: cluster needs at least 1 node, got %d", n)
	}
	return &Cluster{Nodes: n, Config: DefaultNodeConfig()}, nil
}

// Slots returns the number of parallel task slots in the cluster
// (map slots per node times nodes, per Table 2).
func (c *Cluster) Slots() int {
	s := c.Config.MaxMapTasks
	if s < 1 {
		s = 1
	}
	return s * c.Nodes
}

// Schedule is the outcome of placing tasks on the cluster.
type Schedule struct {
	// Makespan is the simulated wall-clock seconds until the last slot
	// finishes.
	Makespan float64
	// PeakNodeMemory is the largest simulated concurrent memory
	// footprint of any node: the sum of its slots' biggest tasks.
	PeakNodeMemory int64
	// TotalMemory sums every task's footprint — the aggregate Gram
	// storage the algorithm needs across the cluster.
	TotalMemory int64
	// TotalDiskBytes sums every task's local-disk traffic (spill and
	// shard I/O).
	TotalDiskBytes int64
	// LocalTasks ran on a node holding their input split, RemoteTasks
	// read it over the network, and NetworkBytes is the traffic of those
	// remote reads. Only ScheduleLocal counts them, and only for tasks
	// with a SplitID.
	LocalTasks   int
	RemoteTasks  int
	NetworkBytes int64
}

// ScheduleTasks places tasks with the classic LPT (longest processing
// time first) greedy: sort by descending cost, assign each to the
// least-loaded slot. LPT is within 4/3 of the optimal makespan, which
// is accurate enough to study scaling shape.
func (c *Cluster) ScheduleTasks(tasks []Task) *Schedule { return c.schedule(tasks, nil, 0) }

// schedule is the one LPT loop. With a DFS, a task with a SplitID goes
// to the least-loaded slot on a node holding a replica of its split
// when that slot is within slack seconds of the least-loaded slot
// overall, and is counted local; otherwise it is counted remote.
func (c *Cluster) schedule(tasks []Task, dfs *DFS, slack float64) *Schedule {
	slots := c.Slots()
	perNode := slots / c.Nodes
	sched := &Schedule{}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tasks[order[a]].Cost > tasks[order[b]].Cost })

	busy := make([]float64, slots)
	// slotPeak[s] tracks the largest single task on each slot: slots run
	// tasks sequentially, so a slot's concurrent footprint is its
	// largest task.
	slotPeak := make([]int64, slots)
	for _, t := range order {
		task := tasks[t]
		best := 0
		for s := 1; s < slots; s++ {
			if busy[s] < busy[best] {
				best = s
			}
		}
		if dfs != nil && task.SplitID != "" {
			local := -1
			for _, node := range dfs.Holders(task.SplitID) {
				for s := node * perNode; s < (node+1)*perNode; s++ {
					if local < 0 || busy[s] < busy[local] {
						local = s
					}
				}
			}
			if local >= 0 && busy[local] <= busy[best]+slack {
				best = local
				sched.LocalTasks++
			} else {
				sched.RemoteTasks++
				sched.NetworkBytes += task.InputBytes
			}
		}
		busy[best] += task.Cost
		slotPeak[best] = max(slotPeak[best], task.MemoryBytes)
		sched.TotalMemory += task.MemoryBytes
		sched.TotalDiskBytes += task.DiskBytes
	}
	for _, b := range busy {
		sched.Makespan = max(sched.Makespan, b)
	}
	for n := 0; n < c.Nodes; n++ {
		var sum int64
		for _, peak := range slotPeak[n*perNode : (n+1)*perNode] {
			sum += peak
		}
		sched.PeakNodeMemory = max(sched.PeakNodeMemory, sum)
	}
	return sched
}

// Step is one stage of a job flow (the paper's flows are: LSH
// partitioning, per-bucket spectral clustering, result collection).
type Step struct {
	Name  string
	Tasks []Task
}

// JobFlow is an ordered list of steps run on a cluster, mirroring the
// EMR job-flow abstraction of §5.1.
type JobFlow struct {
	Name  string
	Steps []Step
}

// StepReport is the per-step outcome.
type StepReport struct {
	Name     string
	Tasks    int
	Makespan float64
	Schedule *Schedule
}

// FlowReport aggregates a job flow run.
type FlowReport struct {
	Cluster   int
	Steps     []StepReport
	TotalTime float64
	// PeakNodeMemory is the worst per-node footprint over all steps.
	PeakNodeMemory int64
	// TotalMemory is the largest aggregate footprint over steps.
	TotalMemory int64
	// TotalDiskBytes sums disk traffic across all steps' tasks.
	TotalDiskBytes int64
}

// RunJobFlow executes the steps sequentially (steps have a barrier
// between them, as EMR steps do) and aggregates the reports.
func (c *Cluster) RunJobFlow(flow *JobFlow) (*FlowReport, error) {
	if flow == nil || len(flow.Steps) == 0 {
		return nil, errors.New("emr: empty job flow")
	}
	rep := &FlowReport{Cluster: c.Nodes}
	for _, step := range flow.Steps {
		s := c.ScheduleTasks(step.Tasks)
		rep.Steps = append(rep.Steps, StepReport{
			Name:     step.Name,
			Tasks:    len(step.Tasks),
			Makespan: s.Makespan,
			Schedule: s,
		})
		rep.TotalTime += s.Makespan
		rep.PeakNodeMemory = max(rep.PeakNodeMemory, s.PeakNodeMemory)
		rep.TotalMemory = max(rep.TotalMemory, s.TotalMemory)
		rep.TotalDiskBytes += s.TotalDiskBytes
	}
	return rep, nil
}

// String renders the flow report as a small table.
func (r *FlowReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "job flow on %d nodes: total %.2fs", r.Cluster, r.TotalTime)
	if r.TotalDiskBytes > 0 {
		fmt.Fprintf(&sb, " disk=%dB", r.TotalDiskBytes)
	}
	sb.WriteString("\n")
	for _, s := range r.Steps {
		fmt.Fprintf(&sb, "  step %-24s tasks=%-5d makespan=%.2fs\n", s.Name, s.Tasks, s.Makespan)
	}
	return sb.String()
}
