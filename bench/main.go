// Command bench is the repository's regression benchmark: four
// closed-loop workloads over the DASC drivers, seven end-to-end
// metrics per workload, and — with -trace 1 — per-layer metrics
// measured from outside the program plus a Chrome trace of the run.
// BENCHMARK.json at the checkout root is its contract; README.md in
// this directory explains the workloads, metrics and bounds.
//
//	bash bench/run.sh                      every workload, one child process each
//	bash bench/run.sh -workload mix-inproc one workload, in this process
//	bash bench/run.sh -trace 1             add the traced run
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect makes the command exit non-zero after it has reported.
var errIncorrect = errors.New("an output check failed")

func run() error {
	name := flag.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "workload seed: arrival order of the rows and the algorithm's own seed (2 is the hold-out)")
	seconds := flag.Float64("seconds", -1, "how long each workload's timed loop runs (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced run: per-layer metrics and out/trace-<workload>.json")
	tiny := flag.Bool("tiny", false, "seconds-long sizes, for the test suite")
	corrupt := flag.Bool("corrupt", false, "put one label of every op out of range, to show the checker and the exit status work")
	compare := flag.Bool("compare", false, "compare two result.json files: -compare A.json B.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *tiny {
		*seconds = 0
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, tiny: *tiny, corrupt: *corrupt,
		outDir: filepath.Join(root, "bench", "out")}
	// Spill runs go where os.TempDir points: keep them in the checkout.
	tmp := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return err
	}
	// One thread: see README, "One thread". The traced run's parallel op
	// and the canary raise it for themselves.
	runtime.GOMAXPROCS(1)

	if *name == "" {
		return runAll(o)
	}
	for _, w := range workloads(o.tiny) {
		if w.name == *name {
			return runOne(w, o)
		}
	}
	return fmt.Errorf("unknown workload %q", *name)
}

// runOne runs one workload in this process, prints every metric with
// its unit, stores the full result, and ends standard output with the
// one-line JSON object the driver reads.
func runOne(w workload, o options) error {
	r, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	printResult(r)
	if err := writeJSON(filepath.Join(o.outDir, "run-"+w.name+".json"), r); err != nil {
		return err
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.EndToEnd}
	if o.trace {
		line.Metrics = r.PerLayer
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

func printResult(r *runResult) {
	fmt.Printf("== %s  seed=%d  ops=%.0f  attempted=%d failed=%d  labels=%s\n",
		r.Workload, r.Seed, r.Aux["run_s_ops"], r.Attempted, r.Failed, r.LabelsHash)
	for _, def := range endToEnd {
		fmt.Printf("%-18s %-36s %14.6g %s\n", r.Workload, def.Name, r.EndToEnd[def.Name].Value, def.Unit)
	}
	fmt.Printf("%-18s %-36s q1 %.4g  median %.4g  q3 %.4g  max %.4g s\n", r.Workload, "run_s (the other ops)",
		r.Aux["run_s_q1"], r.Aux["run_s_median"], r.Aux["run_s_q3"], r.Aux["run_s_max"])
	fmt.Printf("%-18s %-36s one thread %.1f → %.1f ms, two threads %.1f → %.1f ms, memory %.1f ms\n", r.Workload, "canary (before → after)",
		r.Canary.Before.OneThreadMs, r.Canary.After.OneThreadMs, r.Canary.Before.TwoThreadMs, r.Canary.After.TwoThreadMs,
		r.Canary.After.MemoryMs)
	for _, f := range r.Failures {
		fmt.Printf("%-18s FAILED: %s\n", r.Workload, f)
	}
	if r.PerLayer == nil {
		return
	}
	if !*r.ReplayValid {
		fmt.Printf("%-18s TRACE INVALID: the stage replay did not reproduce the untraced labels\n", r.Workload)
	}
	for _, def := range perLayer {
		fmt.Printf("%-18s %-36s %14.6g %-6s → %s\n", r.Workload, def.Name, r.PerLayer[def.Name].Value, def.Unit, def.Moves)
	}
}

// resultFile is out/result.json: one run of every workload.
type resultFile struct {
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Workloads map[string]*runResult `json:"workloads"`
}

// runAll runs every workload in a child process of this binary, one
// after another, so each has its own peak RSS and a fresh heap.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*runResult{}}
	var failed error
	for _, w := range workloads(o.tiny) {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.tiny {
			args = append(args, "-tiny")
		}
		if o.corrupt {
			args = append(args, "-corrupt")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = errors.Join(failed, fmt.Errorf("%s: %w", w.name, err))
			continue
		}
		var r runResult
		if err := readJSON(filepath.Join(o.outDir, "run-"+w.name+".json"), &r); err != nil {
			return err
		}
		out.Workloads[w.name] = &r
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return failed
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
