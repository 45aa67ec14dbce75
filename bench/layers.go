package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/emr"
	"repro/internal/kernel"
	"repro/internal/kmeans"
	"repro/internal/linalg"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/text"
)

const mb = 1e6 // every *_mb metric is decimal megabytes

// tracedExec wraps the executor handed to a driver: it times every job
// by name and, on the Local executor (where the job's own closures
// run in this process), the busy time inside Map and Reduce calls.
type tracedExec struct {
	inner  mapreduce.Executor
	rec    *recorder
	parent int
	local  bool

	lshS, clusterS   float64      // wall seconds of the two jobs
	mapBusy, redBusy atomic.Int64 // nanoseconds inside Map / Reduce
}

func (t *tracedExec) Run(job *mapreduce.Job, input []mapreduce.Pair) ([]mapreduce.Pair, *mapreduce.Counters, error) {
	id := t.rec.begin(job.Name, "mapreduce", t.parent)
	defer t.rec.end(id)
	run := job
	if t.local {
		wrapped := *job
		wrapped.Map = func(key string, value []byte, emit mapreduce.Emit) error {
			sid := t.rec.begin("map", "mapreduce", id)
			start := time.Now()
			err := job.Map(key, value, emit)
			t.mapBusy.Add(time.Since(start).Nanoseconds())
			t.rec.end(sid)
			return err
		}
		wrapped.Reduce = func(key string, values [][]byte, emit mapreduce.Emit) error {
			sid := t.rec.begin("reduce", "mapreduce", id)
			start := time.Now()
			err := job.Reduce(key, values, emit)
			t.redBusy.Add(time.Since(start).Nanoseconds())
			t.rec.end(sid)
			return err
		}
		run = &wrapped
	}
	start := time.Now()
	out, ctr, err := t.inner.Run(run, input)
	switch {
	case err != nil:
	case strings.HasSuffix(job.Name, "-lsh"):
		t.lshS += time.Since(start).Seconds()
	case strings.HasSuffix(job.Name, "-cluster"):
		t.clusterS += time.Since(start).Seconds()
	default:
		err = fmt.Errorf("bench: job %q is neither stage of DASC", job.Name)
	}
	return out, ctr, err
}

// layerProbe gathers the per-layer metrics of one workload from outside
// the program: a traced op, a sequential replay of its stages, and
// isolated probes of the layers the op used.
type layerProbe struct {
	inst *instance
	rec  *recorder
	m    map[string]float64
	// replayValid reports whether the stage replay reproduced the
	// untraced run's buckets and labels.
	replayValid bool
}

func (p *layerProbe) set(name string, v float64) { p.m[name] = v }
func (p *layerProbe) add(name string, v float64) { p.m[name] += v }

// traceWorkload runs the traced op, the replay and the probes.
// runS is the untraced run's median op time — the single traced ops are
// compared with the typical op, not with run_s, which is the fastest —
// and wantHash its labels hash.
func traceWorkload(inst *instance, rec *recorder, runS float64, wantHash uint64) (*layerProbe, error) {
	p := &layerProbe{inst: inst, rec: rec, m: map[string]float64{}}
	res, err := p.tracedOp(runS)
	if err != nil {
		return nil, fmt.Errorf("traced op: %w", err)
	}
	if err := p.parallelOp(runS); err != nil {
		return nil, fmt.Errorf("parallel op: %w", err)
	}
	part, err := p.replay(res, wantHash)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := p.dataPlaneProbes(); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if inst.w.isCorpus() {
		if err := p.corpusProbes(); err != nil {
			return nil, fmt.Errorf("corpus probes: %w", err)
		}
	}
	return p, p.emrModel(part, runS)
}

// wrappedOp runs one op inside a span with the executor wrapper
// installed and returns its result, the wrapper's timings and the op's
// wall seconds.
func (p *layerProbe) wrappedOp(name string) (*core.Result, *tracedExec, float64, error) {
	inst := p.inst
	id := p.rec.begin(name+" "+inst.w.name, "core", 0)
	defer p.rec.end(id)
	te := &tracedExec{inner: inst.exec, rec: p.rec, parent: id, local: !inst.w.tcp}
	if inst.exec != nil {
		inst.exec = te
		defer func() { inst.exec = te.inner }()
	}
	start := time.Now()
	res, err := inst.op()
	return res, te, time.Since(start).Seconds(), err
}

// tracedOp runs one extra op under the timed loop's conditions with the
// executor wrapper installed, and reads everything the program reports
// about it.
func (p *layerProbe) tracedOp(runS float64) (*core.Result, error) {
	inst := p.inst
	var before, after runtime.MemStats
	var ruBefore, ruAfter syscall.Rusage
	runtime.ReadMemStats(&before)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ruBefore); err != nil {
		return nil, err
	}
	res, te, wall, err := p.wrappedOp("traced op")
	if err != nil {
		return nil, err
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ruAfter); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	jobs := te.lshS + te.clusterS
	p.set("mapreduce.job_lsh_s", te.lshS)
	p.set("mapreduce.job_cluster_s", te.clusterS)
	ingest := 0.0
	if inst.w.isCorpus() {
		ingest = inst.ingestS
		p.set("corpus.ingest_s", ingest)
		p.set("corpus.docs_per_s", float64(inst.w.n())/ingest)
	}
	// The traced op's wall time is exactly ingest + the two jobs + this.
	p.set("core.driver_self_s", wall-jobs-ingest)
	p.set("core.cpu_s", cpuSeconds(&ruAfter)-cpuSeconds(&ruBefore))
	p.set("core.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/mb)
	p.set("core.mallocs", float64(after.Mallocs-before.Mallocs))
	p.set("core.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	p.set("trace.overhead_share", (wall-runS)/runS)

	n := float64(inst.w.n())
	var sumSq float64
	largest := 0
	for _, b := range res.Buckets {
		sumSq += float64(b.Size) * float64(b.Size)
		if b.Size > largest {
			largest = b.Size
		}
	}
	p.set("lsh.buckets", float64(len(res.Buckets)))
	p.set("lsh.largest_bucket", float64(largest))
	p.set("lsh.gram_fraction", sumSq/(n*n))
	for _, sm := range [][2]string{
		{spectral.SolverDenseEigen, "spectral.buckets_dense_eigen"},
		{spectral.SolverDenseLanczos, "spectral.buckets_dense_lanczos"},
		{spectral.SolverSparseLanczos, "spectral.buckets_sparse_lanczos"},
		{spectral.SolverEmbedded, "spectral.buckets_embedded"},
		{core.SolverTrivial, "spectral.buckets_trivial"},
		{core.SolverKMeansFallback, "spectral.buckets_fallback"},
	} {
		p.set(sm[1], float64(res.Solvers[sm[0]]))
	}

	if c := res.MapReduce; c != nil {
		raw := n * float64(inst.w.dims()) * 8
		p.set("mapreduce.map_tasks", float64(c.MapTasks))
		p.set("mapreduce.reduce_tasks", float64(c.ReduceTasks))
		p.set("mapreduce.map_outputs", float64(c.MapOutputs))
		p.set("mapreduce.shuffle_mb", float64(c.ShuffleBytes)/mb)
		p.set("mapreduce.wire_out_mb", float64(c.WireBytesOut)/mb)
		p.set("mapreduce.wire_in_mb", float64(c.WireBytesIn)/mb)
		p.set("mapreduce.wire_amp", float64(c.WireBytesOut+c.WireBytesIn)/raw)
		p.set("mapreduce.encode_s", float64(c.EncodeNanos)/1e9)
		p.set("mapreduce.decode_s", float64(c.DecodeNanos)/1e9)
		p.set("mapreduce.spill_mb", float64(c.SpillBytes)/mb)
		p.set("mapreduce.spill_s", float64(c.SpillNanos)/1e9)
		p.set("mapreduce.flate_saved_mb", float64(c.CompressedBytes)/mb)
		p.set("mapreduce.flate_s", float64(c.CompressNanos)/1e9)
		p.set("embed.map_side_s", float64(c.EmbedNanos)/1e9)
		p.set("embed.record_mb", float64(c.EmbedBytes)/mb)
		p.set("shard.read_mb", float64(c.ShardReadBytes)/mb)
		p.set("shard.read_ops", float64(c.ShardReadOps))
		p.set("shard.read_amp", float64(c.ShardReadBytes)/raw)
		if c.ShardReadOps > 0 {
			p.set("shard.coalesced_share", float64(c.ShardCoalescedReads)/float64(c.ShardReadOps))
		}
	}
	return res, nil
}

// parallelOp is the op once more on parallelProcs threads. The timed
// loop runs on one (see README, "One thread"), so this is where the
// program's parallelism shows: the speed-up it buys, how much parallel
// bucket solves inflate one another (each bucket's solve wall against
// the sequential replay's), and on the Local executor how busy the
// Map and Reduce slots were.
func (p *layerProbe) parallelOp(runS float64) error {
	prev := runtime.GOMAXPROCS(parallelProcs())
	defer runtime.GOMAXPROCS(prev)
	res, te, wall, err := p.wrappedOp("parallel op")
	if err != nil {
		return err
	}
	p.set("core.parallel_run_s", wall)
	p.set("core.parallel_speedup", runS/wall)
	p.set("spectral.solve_busy_s", float64(res.SolveNanos)/1e9)
	if jobs := te.lshS + te.clusterS; te.local && jobs > 0 {
		busy := float64(te.mapBusy.Load()+te.redBusy.Load()) / 1e9
		p.set("mapreduce.map_busy_s", float64(te.mapBusy.Load())/1e9)
		p.set("mapreduce.reduce_busy_s", float64(te.redBusy.Load())/1e9)
		p.set("mapreduce.idle_share", 1-busy/(jobs*float64(parallelProcs())))
	}
	return nil
}

// parallelProcs is the thread count of the parallel op and of the
// canary's two-thread loop: two where the machine has them.
func parallelProcs() int { return min(2, runtime.NumCPU()) }

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// shardRows adapts a shard reader to lsh.PointSource for the probing
// partition, like the sharded driver's own adapter.
type shardRows struct {
	r   *shard.Reader
	err error
}

func (s *shardRows) Rows() int { return s.r.Rows() }

func (s *shardRows) Row(i int) []float64 {
	row, err := s.r.ReadRow(i, nil)
	if err != nil {
		s.err = errors.Join(s.err, err)
		return make([]float64, s.r.Cols())
	}
	return row
}

// replay runs the op's stages one after another on the workload's own
// data — plan, hash, partition, per-bucket solve — timing each from
// outside, and checks that the labels it assembles are the untraced
// run's. Shard-backed workloads read rows the way the sharded driver
// does (fit sample, range streams, per-bucket gathers).
func (p *layerProbe) replay(res *core.Result, wantHash uint64) (*lsh.Partition, error) {
	inst, w := p.inst, p.inst.w
	n := w.n()
	root := p.rec.begin("replay", "core", 0)
	defer p.rec.end(root)

	var reader *shard.Reader
	fit := inst.points
	if w.driver == driverSharded {
		var err error
		if reader, err = shard.Open(inst.dir); err != nil {
			return nil, err
		}
		defer func() { _ = reader.Close() }() // read-only handles
		if fit, err = fitSample(reader, core.DefaultFitSample); err != nil {
			return nil, err
		}
	}
	// Resolve against the full N what the drivers resolve, so a plan
	// fitted on the sample matches the sharded driver's.
	cfg := inst.cfg
	if cfg.K == 0 {
		cfg.K = analytic.CategoryLaw(n)
	}
	cfg.M = lsh.DefaultM(n)

	var plan *core.Plan
	d, err := p.rec.timed("core.NewPlan", "core", root, func(int) (err error) {
		plan, err = core.NewPlan(fit, cfg, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.set("core.plan_s", d.Seconds())
	d, err = p.rec.timed("lsh.FitEnsemble", "lsh", root, func(int) error {
		pc := plan.Cfg
		_, err := lsh.FitEnsemble(fit, lsh.Config{M: pc.M, Policy: pc.Policy, Bins: pc.Bins, Seed: pc.Seed},
			lsh.EnsembleConfig{Tables: pc.Tables, ProbeRadius: pc.ProbeRadius, MaxMergedBucket: pc.MaxMergedBucket})
		return err
	})
	if err != nil {
		return nil, err
	}
	p.set("lsh.fit_s", d.Seconds())
	d, _ = p.rec.timed("kernel.MedianSigma", "kernel", root, func(int) error {
		kernel.MedianSigma(fit, 512, cfg.Seed)
		return nil
	})
	p.set("kernel.median_sigma_s", d.Seconds())

	sigs, err := p.hashStage(plan, reader, root)
	if err != nil {
		return nil, err
	}
	var src lsh.PointSource = inst.points
	var probeRows *shardRows
	if reader != nil {
		src = nil
		if cfg.ProbeRadius > 0 {
			probeRows = &shardRows{r: reader}
			src = probeRows
		}
	}
	var part *lsh.Partition
	d, err = p.rec.timed("lsh.Partition", "lsh", root, func(int) (err error) {
		part, err = plan.Ensemble.Partition(src, sigs, plan.Radius)
		return err
	})
	if err != nil {
		return nil, err
	}
	if probeRows != nil && probeRows.err != nil {
		return nil, probeRows.err
	}
	p.set("lsh.partition_s", d.Seconds())

	labels, err := p.solveStage(plan, part, reader, root)
	if err != nil {
		return nil, err
	}
	hash, err := checkLabels(labels, n, res.Clusters)
	p.replayValid = err == nil && hash == wantHash && sameBuckets(part, res)
	return part, nil
}

// sameBuckets reports whether the replayed partition is the one the
// traced op solved, rebuilt from its labels and per-bucket cluster counts.
func sameBuckets(part *lsh.Partition, res *core.Result) bool {
	ks := make([]int, len(res.Buckets))
	for i, b := range res.Buckets {
		ks[i] = b.K
	}
	ran, err := bucketsFromLabels(res.Labels, ks)
	if err != nil || len(ran) != len(part.Buckets) {
		return false
	}
	for bi, b := range part.Buckets {
		if len(b.Indices) != len(ran[bi]) {
			return false
		}
		for i, idx := range b.Indices {
			if ran[bi][i] != idx {
				return false
			}
		}
	}
	return true
}

// fitSample reads the evenly spaced rows the sharded driver fits its
// plan on.
func fitSample(r *shard.Reader, size int) (*matrix.Dense, error) {
	n := r.Rows()
	if size > n {
		size = n
	}
	indices := make([]int, size)
	for i := range indices {
		indices[i] = i * n / size
	}
	return gather(r, nil, indices)
}

// gather copies the listed rows into a dense block, from the shard
// reader when there is one and from the resident matrix otherwise.
func gather(r *shard.Reader, points *matrix.Dense, indices []int) (*matrix.Dense, error) {
	if r == nil {
		out := matrix.NewDense(len(indices), points.Cols())
		matrix.GatherRows(out.Data(), points, indices)
		return out, nil
	}
	out := matrix.NewDense(len(indices), r.Cols())
	return out, r.ReadRowsInto(indices, out.Row)
}

// hashStage computes every point's signatures. Shard-backed workloads
// go shard range by shard range: stream the range into a block
// (shard.stream_s), hash the block (lsh.hash_s), and append it to a
// scratch copy of the shards (shard.write_s), so one pass over the
// data times all three.
func (p *layerProbe) hashStage(plan *core.Plan, reader *shard.Reader, root int) (*lsh.SignatureSet, error) {
	ctx := context.Background()
	if reader == nil {
		var sigs *lsh.SignatureSet
		d, err := p.rec.timed("lsh.Hash", "lsh", root, func(int) (err error) {
			sigs, err = plan.Ensemble.HashContext(ctx, p.inst.points)
			return err
		})
		p.set("lsh.hash_s", d.Seconds())
		return sigs, err
	}
	n, cols := reader.Rows(), reader.Cols()
	sigs := lsh.NewSignatureSet(plan.Ensemble.Tables(), n)
	copyDir := filepath.Join(p.inst.base, "write-probe")
	defer func() { _ = os.RemoveAll(copyDir) }() // scratch copy; a leftover only wastes disk
	w, err := shard.NewWriter(copyDir, cols, 0)
	if err != nil {
		return nil, err
	}
	for _, rg := range reader.Ranges() {
		start, count := rg[0], rg[1]-rg[0]
		block := matrix.NewDense(count, cols)
		d, err := p.rec.timed("shard.Stream", "shard", root, func(int) error {
			return reader.Stream(start, count, func(i int, row []float64) error {
				copy(block.Row(i-start), row)
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		p.add("shard.stream_s", d.Seconds())
		d, err = p.rec.timed("lsh.Hash", "lsh", root, func(int) error {
			bs, err := plan.Ensemble.HashContext(ctx, block)
			if err != nil {
				return err
			}
			for t := range sigs.Tables {
				copy(sigs.Tables[t][start:], bs.Table(t))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.add("lsh.hash_s", d.Seconds())
		d, err = p.rec.timed("shard.Append", "shard", root, func(int) error {
			for i := 0; i < count; i++ {
				if err := w.Append(block.Row(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.add("shard.write_s", d.Seconds())
	}
	d, err := p.rec.timed("shard.Close", "shard", root, func(int) error { return w.Close() })
	if err != nil {
		return nil, err
	}
	p.add("shard.write_s", d.Seconds())
	bytes := float64(n) * float64(cols) * 8 / mb
	p.set("shard.write_mb_per_s", bytes/p.m["shard.write_s"])
	p.set("shard.stream_mb_per_s", bytes/p.m["shard.stream_s"])
	return sigs, nil
}

// solveStage solves the buckets one after another the way every driver
// does (core.BucketK, the engine seed, the k-means fallback) and
// assembles global labels in partition order. Around each solve it
// times the layer the solve spent its time in, on the same rows: the
// sub-Gram for dense buckets, the feature transform for embedded ones,
// and for the largest bucket of each kind the eigensolver and k-means.
func (p *layerProbe) solveStage(plan *core.Plan, part *lsh.Partition, reader *shard.Reader, root int) ([]int, error) {
	inst := p.inst
	n := inst.w.n()
	cfg := plan.Cfg
	kf := kernel.NewGaussian(plan.Sigma)
	labels := make([]int, n)
	var scratch, probeScratch []float64
	var largestDense, largestEmbedded *matrix.Dense
	var denseK, embeddedK int
	var denseSeed, embeddedSeed int64
	var gatheredRows float64
	offset := 0
	for _, b := range part.Buckets {
		ni := len(b.Indices)
		ki := core.BucketK(cfg.K, ni, n)
		id := p.rec.begin(fmt.Sprintf("bucket %x n=%d", b.Signature, ni), "spectral", root)
		local := make([]int, ni) // ki == 1: one cluster
		switch {
		case ni == 1 || ki == 1:
		case ki == ni:
			local = identity(ni)
		default:
			var pts *matrix.Dense
			d, err := p.rec.timed("gather", "shard", id, func(int) (err error) {
				pts, err = gather(reader, inst.points, b.Indices)
				return err
			})
			if err != nil {
				return nil, err
			}
			if reader != nil {
				p.add("shard.gather_s", d.Seconds())
				gatheredRows += float64(ni)
			}
			all := identity(ni)
			seed := cfg.Seed + int64(b.Indices[0])
			ecfg := spectral.EngineConfig{K: ki, Seed: seed, SparseCutoff: cfg.SparseCutoff,
				Epsilon: cfg.Epsilon, Embedder: plan.Embedder, EmbedCutoff: cfg.EmbedCutoff}
			var sres *spectral.Result
			var stats spectral.SolveStats
			d, err = p.rec.timed("spectral.ClusterBucket", "spectral", id, func(int) (err error) {
				sres, stats, err = spectral.ClusterBucket(pts, all, kf, ecfg, &scratch)
				return err
			})
			p.add("spectral.solve_seq_s", d.Seconds())
			if err != nil {
				km, kerr := kmeans.Run(pts, kmeans.Config{K: ki, Seed: cfg.Seed})
				if kerr != nil {
					return nil, fmt.Errorf("bucket %x: spectral (%v) and kmeans fallback (%v) both failed", b.Signature, err, kerr)
				}
				local = km.Labels
				break
			}
			local = sres.Labels
			switch stats.Solver {
			case spectral.SolverDenseEigen, spectral.SolverDenseLanczos:
				d, err = p.rec.timed("kernel.SubGramPooled", "kernel", id, func(int) error {
					_, err := kernel.SubGramPooled(pts, all, kf, &probeScratch, false)
					return err
				})
				if err != nil {
					return nil, err
				}
				p.add("kernel.subgram_s", d.Seconds())
				p.add("kernel.pair_evals", float64(ni)*float64(ni))
				if largestDense == nil || ni > largestDense.Rows() {
					largestDense, denseK, denseSeed = pts, ki, seed
				}
			case spectral.SolverEmbedded:
				dst := make([]float64, ni*plan.Embedder.Dim())
				d, err = p.rec.timed("embed.TransformInto", "embed", id, func(int) error {
					return plan.Embedder.TransformInto(dst, pts, nil)
				})
				if err != nil {
					return nil, err
				}
				p.add("embed.transform_s", d.Seconds())
				p.add("embed.rows", float64(ni))
				if largestEmbedded == nil || ni > largestEmbedded.Rows() {
					largestEmbedded, embeddedK, embeddedSeed = pts, ki, seed
				}
			}
		}
		p.rec.end(id)
		for pos, idx := range b.Indices {
			labels[idx] = offset + local[pos]
		}
		offset += ki
	}
	if s := p.m["kernel.subgram_s"]; s > 0 {
		p.set("kernel.mpairs_per_s", p.m["kernel.pair_evals"]/1e6/s)
	}
	if s := p.m["embed.transform_s"]; s > 0 {
		p.set("embed.mrows_per_s", p.m["embed.rows"]/1e6/s)
	}
	if s := p.m["shard.gather_s"]; s > 0 {
		p.set("shard.gather_krows_per_s", gatheredRows/1e3/s)
	}
	if p.m["spectral.solve_seq_s"] > 0 {
		p.set("spectral.solve_inflation", p.m["spectral.solve_busy_s"]/p.m["spectral.solve_seq_s"])
	}
	if largestDense != nil {
		if err := p.denseBucketProbe(largestDense, kf, denseK, denseSeed, root); err != nil {
			return nil, err
		}
	}
	if largestEmbedded != nil {
		dim := plan.Embedder.Dim()
		rows := make([]float64, largestEmbedded.Rows()*dim)
		if err := plan.Embedder.TransformInto(rows, largestEmbedded, nil); err != nil {
			return nil, err
		}
		emb, err := matrix.NewDenseData(largestEmbedded.Rows(), dim, rows)
		if err != nil {
			return nil, err
		}
		d, err := p.rec.timed("spectral.ClusterEmbeddedRows", "kmeans", root, func(int) error {
			_, err := spectral.ClusterEmbeddedRows(emb, spectral.Config{K: embeddedK, Seed: embeddedSeed})
			return err
		})
		if err != nil {
			return nil, err
		}
		p.set("kmeans.embedded_s", d.Seconds())
	}
	return labels, nil
}

// identity returns 0..n-1: every row of a gathered block, or one
// cluster per point.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// denseBucketProbe times the eigensolver and k-means alone on the
// largest densely solved bucket: Lanczos over the MatVec of its
// normalized Laplacian, then k-means on the spectral embedding.
func (p *layerProbe) denseBucketProbe(pts *matrix.Dense, kf kernel.Kernel, k int, seed int64, root int) error {
	sub := kernel.SubGram(pts, identity(pts.Rows()), kf)
	lap, err := spectral.Laplacian(sub)
	if err != nil {
		return err
	}
	var lres *linalg.LanczosResult
	d, err := p.rec.timed("linalg.Lanczos", "linalg", root, func(int) (err error) {
		lres, err = linalg.Lanczos(linalg.MatVec(lap), lap.Rows(), k, seed)
		return err
	})
	if err != nil {
		return err
	}
	p.set("linalg.lanczos_s", d.Seconds())
	p.set("linalg.lanczos_iters", float64(lres.Iterations))
	sres, err := spectral.Cluster(sub, spectral.Config{K: k, Seed: seed})
	if err != nil {
		return err
	}
	var km *kmeans.Result
	d, err = p.rec.timed("kmeans.Run", "kmeans", root, func(int) (err error) {
		km, err = kmeans.Run(sres.Embedding, kmeans.Config{K: k, Seed: seed})
		return err
	})
	if err != nil {
		return err
	}
	p.set("kmeans.run_s", d.Seconds())
	p.set("kmeans.iters", float64(km.Iterations))
	return nil
}

// dataPlaneProbes times the wire codec and the shuffle merge alone, on
// record shapes the workload's rows would produce.
func (p *layerProbe) dataPlaneProbes() error {
	const pairs, runs = 4096, 32
	value := make([]byte, p.inst.w.dims()*8)
	recs := make([]mapreduce.Pair, pairs)
	for i := range recs {
		recs[i] = mapreduce.Pair{Key: fmt.Sprintf("%016x", i), Value: value}
	}
	var wire int
	d, err := p.rec.timed("mapreduce.WireRoundTripOpts", "mapreduce", 0, func(int) (err error) {
		wire, _, err = mapreduce.WireRoundTripOpts(recs, false)
		return err
	})
	if err != nil {
		return err
	}
	p.set("mapreduce.wire_probe_mb_per_s", float64(wire)/mb/d.Seconds())

	sorted := make([][]mapreduce.Pair, runs)
	for i, rec := range recs { // keys ascend, so dealing them round-robin keeps every run sorted
		sorted[i%runs] = append(sorted[i%runs], rec)
	}
	d, _ = p.rec.timed("mapreduce.MergeRuns", "mapreduce", 0, func(int) error {
		if got := len(mapreduce.MergeRuns(sorted)); got != pairs {
			return fmt.Errorf("merge returned %d of %d pairs", got, pairs)
		}
		return nil
	})
	p.set("mapreduce.merge_probe_mpairs_per_s", pairs/1e6/d.Seconds())
	return nil
}

// corpusProbes splits the ingest: generating the synthetic crawl alone
// (load generation, not the system's work) and cleaning its documents.
func (p *layerProbe) corpusProbes() error {
	docs := make([]string, 0, p.inst.w.docs.NumDocs)
	d, err := p.rec.timed("corpus.GenerateStream", "corpus", 0, func(int) error {
		_, err := corpus.GenerateStream(p.inst.w.docs, func(doc string, _ int) error {
			docs = append(docs, doc)
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	p.set("corpus.generate_s", d.Seconds())
	d, _ = p.rec.timed("text.Clean", "text", 0, func(int) error {
		for _, doc := range docs {
			text.Clean(doc)
		}
		return nil
	})
	p.set("text.clean_s", d.Seconds())
	p.set("text.docs_per_s", float64(len(docs))/d.Seconds())
	return nil
}

// emrModel costs the replayed bucket structure on the simulator's
// 2-node cluster, next to the measured op it models.
func (p *layerProbe) emrModel(part *lsh.Partition, runS float64) error {
	w := p.inst.w
	cfg := p.inst.cfg
	if cfg.K == 0 {
		cfg.K = analytic.CategoryLaw(w.n())
	}
	var rep *emr.FlowReport
	d, err := p.rec.timed("emr.RunJobFlow", "emr", 0, func(int) error {
		build := core.BuildFlow
		if w.driver == driverSharded {
			build = core.BuildFlowSharded
		}
		c, err := emr.NewCluster(tcpWorkers)
		if err != nil {
			return err
		}
		rep, err = c.RunJobFlow(build(part, cfg, w.n(), w.dims(), 0))
		return err
	})
	if err != nil {
		return err
	}
	p.set("emr.model_2node_s", rep.TotalTime)
	p.set("emr.model_error", rep.TotalTime/runS)
	p.set("emr.model_disk_mb", float64(rep.TotalDiskBytes)/mb)
	p.set("emr.sim_s", d.Seconds())
	return nil
}
