package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// setups is how many times a run sets the workload up: once before the
// timed loop, for the instance the ops run on, and the rest at even
// intervals through the loop, each torn down at once. setup_s is the
// fastest of them, for the reason run_s is the fastest op (see
// README, "Why the fastest"); spreading them over the loop keeps one
// slow moment of the machine from covering them all.
const setups = 5

// algoSeeds is how many algorithm seeds the timed ops of one run rotate
// through (Config.Seed = seed·algoSeeds + op mod algoSeeds). Quality is
// the mean over them: k-means initialisation and the random feature map
// move accuracy by several percent from one algorithm seed to the next
// (measured: 0.28–0.35 on corpus-local, 0.81–0.89 on mix-shipped-tcp),
// which is the algorithm's own variance and not a property of a commit.
const algoSeeds = 8

// minOps is the fewest timed ops a run makes, however short -seconds
// is: one per algorithm seed.
const minOps = algoSeeds

// options are the knobs of one run, straight from the command line.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	corrupt bool
	outDir  string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one workload run measured; it is written to
// out/run-<workload>.json and folded into out/result.json.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Tiny      bool               `json:"tiny,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	Aux       map[string]float64 `json:"aux"`
	OpSeconds []float64          `json:"op_seconds"` // every timed op, in run order
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
	// ReplayValid is false when the stage replay of the traced run did
	// not reproduce the untraced labels: its per-layer times then
	// describe different work and must not be used.
	ReplayValid *bool       `json:"replay_valid,omitempty"`
	LabelsHash  string      `json:"labels_hash"`
	Canary      canaryPair  `json:"canary"`
	Env         environment `json:"env"`
}

// fail records one failed check; every check counts as attempted.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runWorkload sets the workload up, runs the closed loop of timed ops
// for o.seconds, checks every output, and with o.trace adds the traced
// run. An error means nothing could be measured.
func runWorkload(w workload, o options) (_ *runResult, err error) {
	r := &runResult{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Tiny: o.tiny,
		EndToEnd: map[string]metric{}, Aux: map[string]float64{}, Env: recordEnvironment(),
	}
	r.Canary.Before = runCanary(false)
	scratch := filepath.Join(o.outDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))

	setupDir := func(i int) string { return filepath.Join(scratch, fmt.Sprintf("setup-%d", i)) }
	start := time.Now()
	inst, err := setUp(w, o.seed, setupDir(0))
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setupS := []float64{time.Since(start).Seconds()}
	defer func() { err = errors.Join(err, inst.close(), os.RemoveAll(scratch)) }()

	var opS []float64
	last := make([]*core.Result, algoSeeds) // last checked result per algorithm seed
	wantHash := make([]uint64, algoSeeds)   // labels hash of its first op
	truths := make([][]int, algoSeeds)      // and the truth it was labelled against
	loop := time.Now()
	var extraS float64 // time the extra set-ups took out of the loop
	elapsed := func() float64 { return time.Since(loop).Seconds() - extraS }
	for op := 0; op < minOps || elapsed() < o.seconds; op++ {
		slot := op % algoSeeds
		inst.cfg.Seed = o.seed*algoSeeds + int64(slot)
		start := time.Now()
		res, err := inst.op()
		d := time.Since(start).Seconds()
		r.Attempted++
		if err != nil {
			r.fail("op %d: %v", op, err)
			continue
		}
		if o.corrupt {
			res.Labels[0] = res.Clusters
		}
		hash, err := checkLabels(res.Labels, w.n(), res.Clusters)
		switch {
		case err != nil:
			r.fail("op %d: %v", op, err)
			continue
		case last[slot] == nil:
			wantHash[slot] = hash
		case hash != wantHash[slot]:
			r.fail("op %d: labels hash %016x differs from %016x of the first op with this seed", op, hash, wantHash[slot])
			continue
		}
		opS = append(opS, d)
		last[slot], truths[slot] = res, inst.truth

		if due := elapsed() >= o.seconds*float64(len(setupS))/setups; due && len(setupS) < setups {
			start := time.Now()
			extra, err := setUp(w, o.seed, setupDir(len(setupS)))
			if err != nil {
				return nil, fmt.Errorf("%s: set-up %d: %w", w.name, len(setupS), err)
			}
			setupS = append(setupS, time.Since(start).Seconds())
			if err := extra.close(); err != nil {
				return nil, err
			}
			extraS += time.Since(start).Seconds()
		}
	}
	r.OpSeconds = append([]float64(nil), opS...)
	sort.Float64s(opS)
	sort.Float64s(setupS)

	// Quality and Gram size: the mean over the algorithm seeds.
	var q quality
	var gramMB, clusters float64
	for slot, res := range last {
		if res == nil {
			return nil, fmt.Errorf("%s: no op with algorithm seed %d passed its check: %v", w.name, slot, r.Failures)
		}
		qs, err := measureQuality(truths[slot], res.Labels)
		if err != nil {
			return nil, err
		}
		q.Accuracy += qs.Accuracy / algoSeeds
		q.NMI += qs.NMI / algoSeeds
		q.PairRecall += qs.PairRecall / algoSeeds
		gramMB += float64(res.GramBytes) / mb / algoSeeds
		clusters += float64(res.Clusters) / algoSeeds
	}
	r.Attempted++
	if q.Accuracy < w.floors.Accuracy || q.NMI < w.floors.NMI || q.PairRecall < w.floors.PairRecall {
		r.fail("quality %+v under the floors %+v", q, w.floors)
	}
	if w.driver == driverShipped {
		// Cross-driver pin: the shipped driver must label exactly like
		// the in-process one on the same matrix and config.
		r.Attempted++
		inst.cfg.Seed = o.seed * algoSeeds
		ref, err := core.Cluster(inst.points, inst.cfg)
		if err != nil {
			r.fail("cross-driver pin: %v", err)
		} else if !slices.Equal(ref.Labels, last[0].Labels) {
			r.fail("cross-driver pin: shipped labels differ from core.Cluster labels")
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	values := map[string]float64{
		"run_s":       opS[0],
		"setup_s":     setupS[0],
		"peak_rss_mb": float64(ru.Maxrss) * 1024 / mb, // Linux reports KiB; this is VmHWM
		"accuracy":    q.Accuracy,
		"nmi":         q.NMI,
		"pair_recall": q.PairRecall,
		"gram_mb":     gramMB,
	}
	for _, def := range endToEnd {
		r.EndToEnd[def.Name] = metric{Value: values[def.Name], Unit: def.Unit}
	}
	r.Aux["run_s_ops"] = float64(len(opS))
	r.Aux["run_s_q1"] = quantile(opS, 0.25)
	r.Aux["run_s_median"] = quantile(opS, 0.5)
	r.Aux["run_s_q3"] = quantile(opS, 0.75)
	r.Aux["run_s_max"] = opS[len(opS)-1]
	r.Aux["setup_s_samples"] = float64(len(setupS))
	r.Aux["setup_s_median"] = quantile(setupS, 0.5)
	r.Aux["setup_s_max"] = setupS[len(setupS)-1]
	r.Aux["clusters"] = clusters
	r.LabelsHash = fmt.Sprintf("%016x", wantHash[0])
	r.Canary.After = runCanary(true) // after peak RSS is read

	if o.trace {
		rec := newRecorder(w.name)
		inst.cfg.Seed = o.seed * algoSeeds
		probe, err := traceWorkload(inst, rec, quantile(opS, 0.5), wantHash[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		r.ReplayValid = &probe.replayValid
		r.PerLayer = map[string]metric{}
		for _, def := range perLayer {
			r.PerLayer[def.Name] = metric{Value: probe.m[def.Name], Unit: def.Unit}
			delete(probe.m, def.Name)
		}
		for name := range probe.m {
			return nil, fmt.Errorf("%s: per-layer metric %q is measured but not declared", w.name, name)
		}
		if err := rec.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), probe.replayValid); err != nil {
			return nil, err
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// environment records where a run happened, so a reader can tell a
// different machine from a different commit.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func recordEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	return env
}

// canary is the wall time of three fixed loops: a register-only spin on
// one thread, the same on two threads at once, and a sum over a 64 MB
// array. On this class of sandbox two busy threads run anywhere between
// 1× and 2× the speed of one (vCPUs sharing a core), and memory-bound
// code drifts by ±40 % over tens of minutes while the spin stays put
// (neighbours on the memory bus), so a slow run with a slow canary is a
// slow machine, not a slow commit.
type canary struct {
	OneThreadMs float64 `json:"one_thread_ms"`
	TwoThreadMs float64 `json:"two_thread_ms"`
	MemoryMs    float64 `json:"memory_ms,omitempty"` // after the run only: its 64 MB would set a small workload's peak RSS
}

type canaryPair struct {
	Before canary `json:"before"`
	After  canary `json:"after"`
}

var canarySink uint64

func spin() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func runCanary(memory bool) canary {
	var c canary
	start := time.Now()
	canarySink += spin()
	c.OneThreadMs = time.Since(start).Seconds() * 1e3

	prev := runtime.GOMAXPROCS(parallelProcs())
	start = time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, 2)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = spin()
		}(i)
	}
	wg.Wait()
	canarySink += sums[0] + sums[1]
	c.TwoThreadMs = time.Since(start).Seconds() * 1e3
	runtime.GOMAXPROCS(prev)
	if !memory {
		return c
	}

	words := make([]uint64, 8<<20) // 64 MB, several times any cache here
	for i := range words {
		words[i] = uint64(i)
	}
	start = time.Now()
	for pass := 0; pass < 4; pass++ {
		for _, w := range words {
			canarySink += w
		}
	}
	c.MemoryMs = time.Since(start).Seconds() * 1e3
	return c
}
