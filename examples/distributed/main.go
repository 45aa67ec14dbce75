// Distributed: run DASC's MapReduce route on a real master/worker
// deployment — workers connect to the master over TCP sockets and
// exchange binary task frames, the in-process equivalent of the paper's
// Hadoop cluster. The rows are resident, so stage 1 hashes them in the
// driver and the stage-2 job carries each bucket's rows to a reducer.
// The same job also runs on the in-process Local executor to show the
// two produce identical clusterings.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
)

func main() {
	data, err := dataset.Mixture(dataset.MixtureConfig{
		N: 1500, D: 16, K: 4, Noise: 0.03, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{K: 4, Seed: 1}
	src := core.Source{Points: data.Points}

	// Cancelling this context aborts in-flight map/reduce tasks on both
	// executors.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Local executor: a bounded worker pool in this process.
	cfg.Executor = &mapreduce.Local{}
	local, err := core.Run(ctx, src, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// TCP executor: a master socket plus four workers dialing in.
	// TCPConfig also carries the dial and per-exchange I/O deadlines
	// (zero fields use DefaultDialTimeout / DefaultIOTimeout).
	master, err := mapreduce.NewMasterTCP(mapreduce.TCPConfig{
		Addr:       "127.0.0.1:0",
		MinWorkers: 4,
		IOTimeout:  30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := master.Close(); err != nil {
			log.Println("master close:", err)
		}
	}()
	for i := 0; i < 4; i++ {
		go func() {
			if err := mapreduce.RunWorkerContext(ctx, master.Addr()); err != nil {
				log.Println("worker:", err)
			}
		}()
	}
	fmt.Printf("master listening on %s, waiting for 4 workers...\n", master.Addr())
	cfg.Executor = master
	tcp, err := core.Run(ctx, src, cfg)
	if err != nil {
		log.Fatal(err)
	}

	agree, err := metrics.Accuracy(local.Labels, tcp.Labels)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := metrics.Accuracy(data.Labels, tcp.Labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local executor:  %d clusters in %s\n", local.Clusters, local.Elapsed)
	fmt.Printf("tcp executor:    %d clusters in %s (4 workers over sockets)\n", tcp.Clusters, tcp.Elapsed)
	fmt.Printf("agreement:       %.3f (1.000 = identical partitions)\n", agree)
	fmt.Printf("accuracy:        %.3f against ground truth\n", acc)
}
