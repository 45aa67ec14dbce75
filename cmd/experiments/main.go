// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                 # everything, full scale
//	experiments -quick          # everything, reduced sizes
//	experiments -only fig3      # one artifact: fig1,fig2,...,table3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/experiments"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "reduced dataset sizes (seconds, not minutes)")
		only  = flag.String("only", "", "comma-separated subset: fig1 fig2 fig2measured fig3 fig4 fig5 fig6 table1 table2 table3 ablations locality")
	)
	flag.Parse()
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}

	// SIGINT/SIGTERM stop the sweep at the next artifact boundary, so a
	// long full-scale run can be abandoned without kill -9.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, a := range experiments.Artifacts {
		if len(want) > 0 && !want[a.ID] {
			continue
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(1)
		}
		tab, err := a.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", a.ID, err)
			os.Exit(1)
		}
		tab.Fprint(os.Stdout)
	}
}
