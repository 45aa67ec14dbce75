package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
)

// gridCell is one route of the driver grid: where the rows come from,
// where the tasks run, and the in-process pool's wave budget.
type gridCell struct {
	name   string
	src    Source
	exec   mapreduce.Executor
	budget int64
}

// driverGrid is every route Run takes to a runner, on pts and on dir,
// which holds pts written as shards: the in-process pool in one wave and
// in waves within budget, the shipped jobs on a Local, and the shard
// directory on a Local and on the default executor. Every cell labels
// like the first (run fits a Dir source on every row).
func driverGrid(pts *matrix.Dense, dir string, budget int64) []gridCell {
	return []gridCell{
		{"batch", Source{Points: pts}, nil, 0},
		{"incremental", Source{Points: pts}, nil, budget},
		{"shipped", Source{Points: pts}, &mapreduce.Local{}, 0},
		{"sharded", Source{Dir: dir}, &mapreduce.Local{}, 0},
		{"sharded-default-executor", Source{Dir: dir}, nil, 0},
	}
}

// run is Run on the cell's route under cfg; a Dir source is fitted on
// all its rows, like a Points source.
func (c gridCell) run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.Executor, cfg.MemoryBudget = c.exec, c.budget
	if c.src.Dir != "" {
		cfg.FitSample = math.MaxInt32
	}
	return Run(ctx, c.src, cfg)
}

// agreesWithBatch fails the test unless res has batch's labels, cluster
// count and Gram accounting.
func agreesWithBatch(t *testing.T, name string, res, batch *Result) {
	t.Helper()
	if len(res.Labels) != len(batch.Labels) {
		t.Fatalf("%s: %d labels, batch has %d", name, len(res.Labels), len(batch.Labels))
	}
	for i := range batch.Labels {
		if res.Labels[i] != batch.Labels[i] {
			t.Fatalf("%s: label[%d] = %d, batch %d", name, i, res.Labels[i], batch.Labels[i])
		}
	}
	if res.Clusters != batch.Clusters || res.GramBytes != batch.GramBytes {
		t.Errorf("%s bookkeeping differs: %d clusters / %d bytes vs %d / %d",
			name, res.Clusters, res.GramBytes, batch.Clusters, batch.GramBytes)
	}
}

// TestRunRejectsBadRoutes: a Source names exactly one of its two
// fields, and MemoryBudget bounds only the in-process pool — it is
// never negative, and never silently dropped by a MapReduce route.
func TestRunRejectsBadRoutes(t *testing.T) {
	l := mixture(t, 60, 4, 2, 0.05, 3)
	dir := writeShardDir(t, l.Points, 32)
	for name, tc := range map[string]struct {
		src Source
		cfg Config
	}{
		"neither source":        {Source{}, Config{K: 2}},
		"both sources":          {Source{Points: l.Points, Dir: dir}, Config{K: 2}},
		"negative budget":       {Source{Points: l.Points}, Config{K: 2, MemoryBudget: -1}},
		"budget with executor":  {Source{Points: l.Points}, Config{K: 2, MemoryBudget: 1 << 20, Executor: &mapreduce.Local{}}},
		"budget with directory": {Source{Dir: dir}, Config{K: 2, MemoryBudget: 1 << 20}},
	} {
		if _, err := Run(bg, tc.src, tc.cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

// TestRunDirDefaultsToLocal: a Dir source with no Executor runs the
// MapReduce jobs on a mapreduce.Local — same labels, buckets and job
// counts as naming one.
func TestRunDirDefaultsToLocal(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	dir := writeShardDir(t, l.Points, 64)
	cfg := Config{K: 4, Seed: 41}
	def, err := Run(bg, Source{Dir: dir}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	named, err := Run(bg, Source{Dir: dir}, onExec(&mapreduce.Local{}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Labels, named.Labels) || def.MapReduce == nil ||
		def.MapReduce.MapTasks != named.MapReduce.MapTasks || def.MapReduce.ReduceTasks != named.MapReduce.ReduceTasks {
		t.Fatalf("default executor: %d labels, counters %+v; named Local: counters %+v", len(def.Labels), def.MapReduce, named.MapReduce)
	}
	if def.Waves != 0 || def.PeakGramBytes != 0 {
		t.Errorf("MapReduce route reported waves %d, peak %d; want zero", def.Waves, def.PeakGramBytes)
	}
}

// TestShardReadCountersCountOnlyThisRun: a Dir run's shard-read
// counters are its own reader's, so runs on another directory in the
// same process do not leak into them — a run alongside them reports
// exactly what it reports alone. (Runs on the same directory share one
// reader, and so do count each other's reads.)
func TestShardReadCountersCountOnlyThisRun(t *testing.T) {
	a := mixture(t, 2048, 8, 4, 0.05, 5)
	b := mixture(t, 2048, 8, 4, 0.05, 6)
	dirA, dirB := writeShardDir(t, a.Points, 512), writeShardDir(t, b.Points, 512)
	cfg := Config{K: 4, Seed: 1}
	reads := func(res *Result) [3]int64 {
		return [3]int64{res.MapReduce.ShardReadBytes, res.MapReduce.ShardReadOps, res.MapReduce.ShardCoalescedReads}
	}
	solo, err := Run(bg, Source{Dir: dirA}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reads(solo)[0] == 0 {
		t.Fatal("solo run read no shard bytes")
	}

	// Keep runs on dirB going for the whole of the measured run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var others int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := Run(bg, Source{Dir: dirB}, cfg); err != nil {
				t.Error(err)
				return
			}
			others++
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	alongside, err := Run(bg, Source{Dir: dirA}, cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reads(alongside), reads(solo); got != want {
		t.Errorf("alongside %d run(s) on another directory: (bytes, ops, coalesced) = %v, alone %v", others, got, want)
	}
}
