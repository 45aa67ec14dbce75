// Command dasc clusters a CSV dataset (label,v0,v1,... — the datagen
// format; labels are used only for scoring) with DASC or one of the
// paper's baselines, and prints accuracy, quality metrics, memory and
// time.
//
// Usage:
//
//	datagen -kind corpus -n 2048 | dasc -algo dasc -k 34
//	dasc -algo sc -in mix.csv
//	dasc -algo dasc -mapreduce tcp -workers 4 -in mix.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/analytic"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
)

func main() {
	var (
		algo    = flag.String("algo", "dasc", "algorithm: dasc | sc | psc | nyst | km")
		in      = flag.String("in", "-", "input CSV path ('-' = stdin)")
		k       = flag.Int("k", 0, "clusters (0 = paper's category law)")
		m       = flag.Int("m", 0, "DASC signature bits (0 = paper default)")
		tune    = flag.Float64("tune", 0, "auto-tune M to keep this Fnorm ratio (overrides -m; e.g. 0.5)")
		sigma   = flag.Float64("sigma", 0, "kernel bandwidth (0 = median heuristic)")
		seed    = flag.Int64("seed", 1, "random seed")
		mr      = flag.String("mapreduce", "", "DASC driver: '' (in-process pool) | the MapReduce jobs on: local (in-process executor) | tcp (master + goroutine workers over sockets) | tcp-shipped (master waiting for external dascworker processes)")
		workers = flag.Int("workers", 2, "TCP MapReduce workers (tcp: goroutines; tcp-shipped: external dascworker processes to wait for)")
		listen  = flag.String("listen", "127.0.0.1:0", "master listen address for tcp-shipped")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the context, which aborts the run between
	// pipeline stages (and unblocks in-flight TCP task exchanges).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	input := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = f.Close() }() // input file, read-only
		input = f
	}
	l, err := dataset.ReadCSV(input)
	if err != nil {
		fatal(err)
	}
	n := l.Points.Rows()
	kk := *k
	if kk == 0 {
		kk = analytic.CategoryLaw(n)
	}
	fmt.Printf("dataset: %d points x %d dims, target clusters %d\n", n, l.Points.Cols(), kk)

	var (
		labels    []int
		gramBytes int64
		elapsed   time.Duration
	)
	switch *algo {
	case "dasc":
		if *tune > 0 {
			tuned, _, err := core.TuneM(l.Points, core.Config{Sigma: *sigma, Seed: *seed}, *tune, 0)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("tuned: M=%d keeps Fnorm ratio >= %.2f\n", tuned, *tune)
			*m = tuned
		}
		cfg := core.Config{K: kk, M: *m, Sigma: *sigma, Seed: *seed}
		var res *core.Result
		switch *mr {
		case "":
			res, err = core.Run(ctx, core.Source{Points: l.Points}, cfg)
		case "local":
			cfg.Executor = &mapreduce.Local{}
			res, err = core.Run(ctx, core.Source{Points: l.Points}, cfg)
		case "tcp":
			res, err = runOverTCP(ctx, l, cfg, "127.0.0.1:0", *workers, false)
		case "tcp-shipped":
			res, err = runOverTCP(ctx, l, cfg, *listen, *workers, true)
		default:
			fatal(fmt.Errorf("unknown -mapreduce %q", *mr))
		}
		if err != nil {
			fatal(err)
		}
		labels, gramBytes, elapsed = res.Labels, res.GramBytes, res.Elapsed
		fmt.Printf("dasc: M=%d bits, %d buckets, %d clusters\n",
			res.SignatureBits, len(res.Buckets), res.Clusters)
	case "sc", "psc", "nyst", "km":
		cfg := baseline.Config{K: kk, Sigma: *sigma, Seed: *seed}
		var res *baseline.Result
		switch *algo {
		case "sc":
			res, err = baseline.SC(l.Points, cfg)
		case "psc":
			res, err = baseline.PSC(l.Points, cfg)
		case "nyst":
			res, err = baseline.NYST(l.Points, cfg)
		case "km":
			res, err = baseline.KM(l.Points, cfg)
		}
		if err != nil {
			fatal(err)
		}
		labels, gramBytes, elapsed = res.Labels, res.GramBytes, res.Elapsed
	default:
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}

	acc, err := metrics.Accuracy(l.Labels, labels)
	if err != nil {
		fatal(err)
	}
	dbi, err := metrics.DaviesBouldin(l.Points, labels)
	if err != nil {
		fatal(err)
	}
	ase, err := metrics.AverageSquaredError(l.Points, labels)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("accuracy: %.4f\nDBI:      %.4f\nASE:      %.5f\n", acc, dbi, ase)
	fmt.Printf("gram:     %.1f KB\ntime:     %s\n", float64(gramBytes)/1024, elapsed.Round(time.Millisecond))
}

// runOverTCP starts a TCP master on listen and runs the DASC jobs on it.
// The workers are goroutines dialing it over real sockets, or — external
// — dascworker processes it waits for, which can live on other machines.
func runOverTCP(ctx context.Context, l *dataset.Labeled, cfg core.Config, listen string, workers int, external bool) (*core.Result, error) {
	master, err := mapreduce.NewMaster(listen, workers)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := master.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "master close:", err)
		}
	}()
	if external {
		fmt.Printf("master listening on %s; start %d x `dascworker -master %s`\n",
			master.Addr(), workers, master.Addr())
		workers = 0 // none of our own
	}
	for i := 0; i < workers; i++ {
		go func() {
			if err := mapreduce.RunWorkerContext(ctx, master.Addr()); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
			}
		}()
	}
	cfg.Executor = master
	return core.Run(ctx, core.Source{Points: l.Points}, cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dasc:", err)
	os.Exit(1)
}
