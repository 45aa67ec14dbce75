// Command dascworker is a standalone MapReduce worker process: it dials
// the master, serves tasks until the master shuts down, and exits. The
// DASC jobs core.Run submits to a TCP Master — the stage-2 job, rows
// inside its records (core.Source.Points), or both jobs over shard files
// (core.Source.Dir) — are
// available to it through the factories registered by the core package,
// so a real multi-process deployment is:
//
//	terminal 1:  dasc -algo dasc -mapreduce tcp-shipped -in data.csv
//	terminal 2+: dascworker -master 127.0.0.1:<port>
//
// For sharded jobs (a Run on core.Source.Dir) the shard directory
// path inside the job conf must resolve on the worker's filesystem —
// a shared mount in a real deployment. Workers cache one open shard
// reader per directory for their lifetime and ship their read meter
// back on result frames, so the master's ShardReadBytes counts them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/mapreduce"

	// Register the shipped DASC job factories in this process.
	_ "repro/internal/core"
)

func main() {
	master := flag.String("master", "", "master address host:port (required)")
	flag.Parse()
	if *master == "" {
		fmt.Fprintln(os.Stderr, "dascworker: -master is required")
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the context, which unblocks the worker's
	// in-flight task exchange and makes it exit cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := mapreduce.RunWorkerContext(ctx, *master)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dascworker: interrupted")
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dascworker:", err)
		os.Exit(1)
	}
}
