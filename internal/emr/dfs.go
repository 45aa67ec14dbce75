package emr

import (
	"fmt"
	"math/rand"
)

// DFS models the HDFS layer under the simulated cluster: input splits
// are replicated on ReplicationFactor nodes (Table 2 sets 3), and the
// scheduler can place a task on a node that holds its split to avoid
// reading it over the network — Hadoop's data-locality optimization,
// which §5.1 credits the LSH partitioning step with enabling.
type DFS struct {
	nodes       int
	replication int
	placement   map[string][]int // split id -> nodes holding a replica
}

// NewDFS creates a DFS over the cluster's nodes using its configured
// replication factor.
func (c *Cluster) NewDFS() *DFS {
	r := c.Config.ReplicationFactor
	if r < 1 {
		r = 1
	}
	if r > c.Nodes {
		r = c.Nodes
	}
	return &DFS{
		nodes:       c.Nodes,
		replication: r,
		placement:   map[string][]int{},
	}
}

// Place assigns a split to replication-many distinct nodes, chosen
// round-robin with a seeded rotation (HDFS's rack-unaware default).
func (d *DFS) Place(splitID string, seed int64) []int {
	if nodes, ok := d.placement[splitID]; ok {
		return nodes
	}
	rng := rand.New(rand.NewSource(seed + int64(len(d.placement))))
	start := rng.Intn(d.nodes)
	nodes := make([]int, 0, d.replication)
	for i := 0; i < d.replication; i++ {
		nodes = append(nodes, (start+i)%d.nodes)
	}
	d.placement[splitID] = nodes
	return nodes
}

// Holders returns the nodes storing splitID (nil when never placed).
func (d *DFS) Holders(splitID string) []int { return d.placement[splitID] }

// ScheduleLocal places tasks LPT like ScheduleTasks, but a task with
// a SplitID goes to a slot on a node that holds its split when one is
// within slack seconds of the least-loaded slot; a remote placement is
// charged the task's InputBytes on the network counter.
func (c *Cluster) ScheduleLocal(tasks []Task, dfs *DFS, slack float64) (*Schedule, error) {
	if dfs == nil {
		return nil, fmt.Errorf("emr: ScheduleLocal needs a DFS")
	}
	if slack < 0 {
		return nil, fmt.Errorf("emr: negative slack %v", slack)
	}
	return c.schedule(tasks, dfs, slack), nil
}
