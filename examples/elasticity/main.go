// Elasticity: the paper's Table 3 scenario — run DASC's job flow on
// simulated Amazon EMR clusters of 16, 32 and 64 nodes and watch the
// time halve while accuracy and memory stay flat. The flow's tasks come
// from a real LSH partition of a real corpus; only their execution is
// simulated (cost model from §4.1, LPT scheduling onto Table 2 nodes).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/emr"
	"repro/internal/metrics"
)

func main() {
	c, err := corpus.Generate(corpus.Config{NumDocs: 2048, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	data, err := c.Vectorize(11)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{K: c.Categories, Seed: 1, M: 10}

	// Real run for accuracy.
	run, err := core.Run(context.Background(), core.Source{Points: data.Points}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := metrics.Accuracy(data.Labels, run.Labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DASC on %d documents: %d buckets, accuracy %.3f\n\n",
		data.Points.Rows(), len(run.Buckets), acc)

	// Simulated elastic execution of the same work.
	flow, _, err := core.EMRFlow(context.Background(), data.Points, cfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	// At this single-machine dataset size DASC produces a few dozen
	// bucket tasks, so the interesting elastic range is small clusters
	// (the paper's 16-64 node sweep at N in the millions has thousands
	// of tasks — cmd/experiments -only table3 reproduces that regime by
	// resampling the measured bucket distribution).
	fmt.Printf("%-8s %-14s %-14s %s\n", "nodes", "total time", "memory", "speedup")
	var base float64
	for step, nodes := range []int{1, 2, 4, 8} {
		cluster, err := emr.NewCluster(nodes)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := cluster.RunJobFlow(flow)
		if err != nil {
			log.Fatal(err)
		}
		if step == 0 {
			base = rep.TotalTime
		}
		fmt.Printf("%-8d %-14s %-14s %.2fx\n",
			nodes,
			fmt.Sprintf("%.3fs", rep.TotalTime),
			fmt.Sprintf("%.1f KB", float64(rep.TotalMemory)/1024),
			base/rep.TotalTime)
	}
	fmt.Println("\nsteps on the 8-node cluster:")
	cluster, _ := emr.NewCluster(8)
	rep, err := cluster.RunJobFlow(flow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
}
