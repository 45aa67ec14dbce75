package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/offheap"
	"repro/internal/shard"
)

// scaleCase is one out-of-core run: an Eq.-15 corpus of n documents is
// streamed through the spooled dense vectorizer (the paper's §5.2: top
// F = 11 terms, d = 11) into shard files, and the shard directory is
// clustered through Run with the embedded solve on its big buckets.
type scaleCase struct {
	name string
	n    int
	// workers is the number of in-process TCP workers; 0 runs the jobs
	// on mapreduce.Local.
	workers int
	// spill is the shuffle budget. It is set at most a quarter of the
	// case's measured shuffle, so the merge always runs file-backed.
	spill    int64
	compress bool
	// minRecall sits just under the exact pair recall the case measured
	// when it was added.
	minRecall float64
}

// run ingests, clusters and checks the case, and logs what it measured.
// The checks are invariants only: every point labelled below Clusters,
// Σ bucket sizes = N, Σ Kᵢ = Clusters, shard reads of at least one full
// pass, a spilled shuffle, and the recall floor. The max RSS is the
// process's, so it belongs to this case only when the case runs alone.
// The clustering's live heap is sampled throughout, and the three
// allocation sites holding the most of it at its peak are logged.
func (c scaleCase) run(t *testing.T) {
	const f, dims = 11, 11
	dir := t.TempDir()
	start := time.Now()
	w, err := shard.NewWriter(dir, dims, shard.DefaultRowsPerShard)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]int, 0, c.n)
	if _, err := corpus.StreamDense(corpus.Config{NumDocs: c.n, Seed: 1, VocabSize: 8192}, f, dims, 1,
		func(row []float64, label int) error {
			truth = append(truth, label)
			return w.Append(row)
		}); err != nil {
		_ = w.Close()
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ingest := time.Since(start)

	var exec mapreduce.Executor = &mapreduce.Local{}
	if c.workers > 0 {
		exec = loopbackCluster(t, c.workers)
	}
	cfg := Config{Seed: 1, SpillBytes: c.spill, Compression: c.compress, EmbedDim: 64, EmbedCutoff: 2048}
	start = time.Now()
	live := sampleLiveHeap(t, filepath.Join(t.TempDir(), "heap-at-peak.pprof"))
	offheap.ResetPeak()
	res, err := Run(bg, Source{Dir: dir}, onExec(exec, cfg))
	mapped := offheap.ResetPeak() // reducer rows and scratch, solve scratch, worker frames
	peak := live()
	if err != nil {
		t.Fatal(err)
	}
	runTime := time.Since(start)
	t.Logf("%s: %s; mapped peak=%.1fMB", c.name, peak, float64(mapped)/(1<<20))

	recall, err := metrics.PairRecall(truth, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	var ru syscall.Rusage // Maxrss is in KiB on Linux
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	ctr := res.MapReduce
	if ctr == nil {
		t.Fatal("Result.MapReduce not populated")
	}
	t.Logf("%s: n=%d ingest=%.1fs run=%.1fs max-rss=%dMB pair-recall=%.4f clusters=%d eq15-K=%d buckets=%d "+
		"shard-read=%dB shard-read-ops=%d shuffle=%dB spill=%dB",
		c.name, c.n, ingest.Seconds(), runTime.Seconds(), ru.Maxrss>>10, recall, res.Clusters, analytic.CategoryLaw(c.n),
		len(res.Buckets), ctr.ShardReadBytes, ctr.ShardReadOps, ctr.ShuffleBytes, ctr.SpillBytes)

	if len(res.Labels) != c.n {
		t.Fatalf("%d labels, want %d", len(res.Labels), c.n)
	}
	for i, lab := range res.Labels {
		if lab < 0 || lab >= res.Clusters {
			t.Fatalf("label[%d] = %d outside [0,%d)", i, lab, res.Clusters)
		}
	}
	size, k := 0, 0
	for _, b := range res.Buckets {
		size += b.Size
		k += b.K
	}
	if size != c.n || k != res.Clusters {
		t.Fatalf("buckets hold %d points and %d clusters, want %d and %d", size, k, c.n, res.Clusters)
	}
	if pass := int64(c.n) * dims * 8; ctr.ShardReadBytes < pass {
		t.Fatalf("shard reads %dB below one full pass %dB", ctr.ShardReadBytes, pass)
	}
	if ctr.SpillBytes == 0 {
		t.Fatalf("the %dB budget did not spill a %dB shuffle", c.spill, ctr.ShuffleBytes)
	}
	if recall < c.minRecall {
		t.Fatalf("pair recall %.4f below the floor %.4f", recall, c.minRecall)
	}
}

// TestOutOfCoreSmall keeps the scale run's body working in the default
// suite: the 1M cases' route, two TCP workers and a spilled shuffle, at
// 4 096 documents.
func TestOutOfCoreSmall(t *testing.T) {
	// The shuffle is 5 024 B and pair recall 0.2003.
	scaleCase{name: "4k-tcp", n: 4096, workers: 2, spill: 1 << 10, minRecall: 0.19}.run(t)
}

// livePeak is the largest live heap a sampleLiveHeap run saw, when, and
// the allocation sites that held the most of it then.
type livePeak struct {
	bytes uint64
	at    time.Duration
	sites []string
}

func (p livePeak) String() string {
	return fmt.Sprintf("live-heap peak=%dMB at %.1fs; top live sites there: %s",
		p.bytes>>20, p.at.Seconds(), strings.Join(p.sites, "; "))
}

// sampleLiveHeap reads the collector's live-heap figure every 20 ms
// until the returned stop is called. At each new peak it writes the heap
// profile to path and keeps the three sites with the most bytes in use —
// both as of the collection that measured the peak.
func sampleLiveHeap(t *testing.T, path string) (stop func() livePeak) {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	start := time.Now()
	var peak livePeak
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak.bytes {
				peak = livePeak{bytes: v, at: time.Since(start), sites: topLiveSites(3)}
				if err := writeHeapProfile(path); err != nil {
					t.Errorf("heap profile: %v", err)
				}
			}
		}
	}()
	return func() livePeak {
		close(done)
		wg.Wait()
		return peak
	}
}

// writeHeapProfile writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// topLiveSites names the n allocation sites with the most bytes in use
// in the memory profile, by the innermost non-runtime function and its
// caller, with their in-use bytes scaled from the profile's samples as
// pprof scales them.
func topLiveSites(n int) []string {
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		got, ok := runtime.MemProfile(recs, false)
		if ok {
			recs = recs[:got]
			break
		}
		recs = make([]runtime.MemProfileRecord, got+got/4)
	}
	type site struct {
		name  string
		bytes float64
	}
	var sites []site
	rate := float64(runtime.MemProfileRate)
	for i := range recs {
		r := &recs[i]
		objs := r.InUseObjects()
		if objs <= 0 {
			continue
		}
		avg := float64(r.InUseBytes()) / float64(objs)
		scale := 1 / (1 - math.Exp(-avg/rate))
		var names []string
		frames := runtime.CallersFrames(r.Stack())
		for f, more := frames.Next(); len(names) < 2; f, more = frames.Next() {
			if !strings.HasPrefix(f.Function, "runtime.") {
				names = append(names, f.Function[strings.LastIndex(f.Function, "/")+1:])
			}
			if !more {
				break
			}
		}
		sites = append(sites, site{strings.Join(names, " < "), float64(r.InUseBytes()) * scale})
	}
	sort.Slice(sites, func(a, b int) bool { return sites[a].bytes > sites[b].bytes })
	out := make([]string, 0, n)
	for _, s := range sites[:min(n, len(sites))] {
		out = append(out, fmt.Sprintf("%s %.1fMB", s.name, s.bytes/(1<<20)))
	}
	return out
}
