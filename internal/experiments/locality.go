package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/emr"
)

// Locality regenerates the Hadoop data-locality study implied by the
// paper's setup (Table 2 configures DFS replication 3; §5.1 credits the
// LSH partitioning with data locality): the hashing step's input-split
// tasks are placed on an HDFS model and scheduled with and without
// locality preference, reporting the local-read fraction, the network
// traffic of remote reads, and the makespan cost of chasing locality.
func Locality(scale Scale) (*Table, error) {
	n := 1 << 16
	if scale == Full {
		n = 1 << 20
	}
	const splitSize = 1024
	const bytesPerPoint = 11 * 8 // the paper's F=11 features
	beta := analytic.DefaultModel().Beta
	m := analytic.SignatureBits(n)

	t := &Table{
		ID:      "Locality",
		Caption: f("HDFS locality for the LSH step over %d points (%d splits)", n, n/splitSize),
		Headers: []string{"nodes", "slack", "local", "remote", "network (MB)", "makespan (s)"},
	}
	for _, nodes := range []int{8, 16, 32} {
		cluster, err := emr.NewCluster(nodes)
		if err != nil {
			return nil, err
		}
		dfs := cluster.NewDFS()
		var tasks []emr.Task
		for s := 0; s*splitSize < n; s++ {
			id := fmt.Sprintf("split-%d", s)
			dfs.Place(id, int64(s))
			tasks = append(tasks, emr.Task{
				Name:       id,
				Cost:       beta * float64(m) * splitSize,
				SplitID:    id,
				InputBytes: splitSize * bytesPerPoint,
			})
		}
		for _, slack := range []float64{0, tasks[0].Cost} {
			sched, err := cluster.ScheduleLocal(tasks, dfs, slack)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				f("%d", nodes),
				f("%.3g", slack),
				f("%d", sched.LocalTasks),
				f("%d", sched.RemoteTasks),
				f("%.2f", float64(sched.NetworkBytes)/1e6),
				f("%.3f", sched.Makespan),
			})
		}
	}
	t.Notes = append(t.Notes,
		"slack = one task's cost lets the scheduler wait for a replica-holding slot: locality rises, network traffic falls, makespan stays within one task of optimal")
	return t, nil
}
