// Command dasclint runs the DASC project's static-analysis suite
// (internal/lint) over the module: floatcmp, errcheck-gob,
// goroutine-guard, panicfree, plus the determinism and concurrency
// analyzers maporder, floataccum, and poolescape.
// Lock copies are go vet's copylocks check, not this suite's.
//
// Usage:
//
//	go run ./cmd/dasclint [-json] [-list] [packages...]
//
// Package arguments are directory patterns relative to the current
// directory: "./..." (the default) lints the whole module, "./internal/lint"
// one package, "./internal/..." a subtree. The whole module is always
// loaded and analyzed; the patterns only select which findings are
// printed. Diagnostics print as
//
//	file:line:col: analyzer: message
//
// and the exit status is 0 when the tree is clean, 1 when findings were
// reported, and 2 when the module failed to load or type-check.
//
// Parsing and analysis fan out across GOMAXPROCS; diagnostics are
// globally sorted, so the output is byte-identical at any parallelism.
// -json emits a report object with the wall-clock split (load/analyze)
// alongside the findings, which CI archives for trend inspection.
//
// A finding can be suppressed on a specific line — with a mandatory
// reason — by a trailing or preceding comment:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive that no longer suppresses anything is itself reported, so
// dead waivers cannot accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
)

// report is the -json output shape: the findings plus the run's timing
// and scope, so archived reports can be compared across commits.
type report struct {
	ElapsedMs   float64           `json:"elapsed_ms"`
	LoadMs      float64           `json:"load_ms"`
	AnalyzeMs   float64           `json:"analyze_ms"`
	Packages    int               `json:"packages"`
	Analyzers   int               `json:"analyzers"`
	Findings    []lint.Diagnostic `json:"findings"`
	NumFindings int               `json:"num_findings"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON report (timings + diagnostics)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	rep, err := run(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dasclint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "dasclint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range rep.Findings {
			fmt.Println(d)
		}
	}
	if len(rep.Findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "dasclint: %d finding(s)\n", len(rep.Findings))
		}
		os.Exit(1)
	}
}

func run(patterns []string) (*report, error) {
	start := time.Now()
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	loaded := time.Now()
	diags := lint.Run(loader.Fset, pkgs, lint.All)
	analyzed := time.Now()
	diags, err = filterByPatterns(diags, cwd, patterns)
	if err != nil {
		return nil, err
	}
	if diags == nil {
		diags = []lint.Diagnostic{}
	}
	return &report{
		ElapsedMs:   float64(analyzed.Sub(start).Microseconds()) / 1000,
		LoadMs:      float64(loaded.Sub(start).Microseconds()) / 1000,
		AnalyzeMs:   float64(analyzed.Sub(loaded).Microseconds()) / 1000,
		Packages:    len(pkgs),
		Analyzers:   len(lint.All),
		Findings:    diags,
		NumFindings: len(diags),
	}, nil
}

// filterByPatterns keeps diagnostics whose file falls under one of the
// requested directory patterns. No patterns (or "./...") means keep
// everything.
func filterByPatterns(diags []lint.Diagnostic, cwd string, patterns []string) ([]lint.Diagnostic, error) {
	if len(patterns) == 0 {
		return diags, nil
	}
	type rule struct {
		dir     string
		subtree bool
	}
	var rules []rule
	for _, p := range patterns {
		if p == "./..." || p == "..." {
			return diags, nil
		}
		subtree := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			p, subtree = rest, true
		}
		dir := p
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("pattern %q: not a directory", p)
		}
		rules = append(rules, rule{dir: filepath.Clean(dir), subtree: subtree})
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		fileDir := filepath.Dir(d.File)
		for _, r := range rules {
			if fileDir == r.dir || (r.subtree && strings.HasPrefix(fileDir, r.dir+string(filepath.Separator))) {
				out = append(out, d)
				break
			}
		}
	}
	return out, nil
}
