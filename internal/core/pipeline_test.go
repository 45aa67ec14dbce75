package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
)

// TestAllDriversProduceIdenticalLabels is the pipeline's central
// guarantee: every route of Run is one dataflow, so for a fixed seed
// their labels, cluster counts, and Gram accounting must agree exactly.
func TestAllDriversProduceIdenticalLabels(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	cfg := Config{K: 4, Seed: 41}

	batch, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range driverGrid(l.Points, writeShardDir(t, l.Points, 64), batch.GramBytes/2+1) {
		res, err := c.run(bg, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		agreesWithBatch(t, c.name, res, batch)
		if c.budget > 0 && res.Waves < 2 {
			t.Errorf("half-budget %s run used %d wave(s), want >= 2", c.name, res.Waves)
		}
	}
}

// TestPipelineCancellation checks that every route of Run, and EMRFlow,
// returns context.Canceled when cancelled up front.
func TestPipelineCancellation(t *testing.T) {
	l := mixture(t, 120, 8, 3, 0.03, 7)
	cfg := Config{K: 3, Seed: 9}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, c := range driverGrid(l.Points, writeShardDir(t, l.Points, 32), 1<<20) {
		if _, err := c.run(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", c.name, err)
		}
	}
	if _, _, err := EMRFlow(ctx, l.Points, cfg, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("EMRFlow err = %v, want context.Canceled", err)
	}
}

// TestNewPlanFamilyOverride pins the Family-vs-hasher contract: an
// in-process plan honours a custom family; a plan for a driver that
// ships the fitted hasher to its workers refuses one, naming the driver,
// instead of silently hashing with something else.
func TestNewPlanFamilyOverride(t *testing.T) {
	l := mixture(t, 100, 8, 2, 0.03, 11)
	fam := fixedFamily{bits: 3}
	p, err := NewPlan(l.Points, Config{K: 2, Seed: 1, Family: fam}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, isFam := p.Ensemble.Families()[0].(fixedFamily); !isFam || p.Cfg.M != 3 {
		t.Errorf("in-process plan: table 0 is %T, M=%d, want the custom family with M=3", p.Ensemble.Families()[0], p.Cfg.M)
	}
	if _, err = NewPlan(l.Points, Config{K: 2, Seed: 1, Family: fam}, true); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NewPlan(needsHasher) with a Family: err = %v, want ErrBadConfig", err)
	}
	cfg := Config{K: 2, Seed: 1, Family: fam}
	for name, run := range map[string]func() error{
		"mapreduce": func() error {
			_, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, cfg))
			return err
		},
		"EMRFlow": func() error {
			_, _, err := EMRFlow(bg, l.Points, cfg, 0)
			return err
		},
	} {
		if err := run(); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "MapReduce drivers and EMRFlow") {
			t.Errorf("%s with a Family: err = %v, want ErrBadConfig naming the drivers that cannot run one", name, err)
		}
	}
	if p, err = NewPlan(l.Points, Config{K: 2, Seed: 1}, true); err != nil {
		t.Fatal(err)
	}
	if hashers, err := p.Hashers(); err != nil || len(hashers) != 1 {
		t.Errorf("distributed plan without a Family: %d hashers, err=%v, want the paper's fitted hasher", len(hashers), err)
	}
}

// fixedFamily is a trivial lsh.Family stub for plan tests.
type fixedFamily struct{ bits int }

func (f fixedFamily) Bits() int                    { return f.bits }
func (f fixedFamily) Signature(v []float64) uint64 { return uint64(len(v)) % (1 << uint(f.bits)) }

// TestAssemblyHoldsSolutionsToThePlan: label offsets are only unique if
// every bucket yields exactly its planned share of K, so assembly checks
// it for every runner — a remote reducer's record included — and a
// solution that carries no byte accounting is billed its planned
// footprint.
func TestAssemblyHoldsSolutionsToThePlan(t *testing.T) {
	solver, err := newBucketSolver(solvePolicy{N: 6, Cols: 2, K: 2, Sigma: 1})
	if err != nil {
		t.Fatal(err)
	}
	part := &lsh.Partition{Buckets: []lsh.Bucket{
		{Signature: 0xa, Indices: []int{0, 1, 2}},
		{Signature: 0xb, Indices: []int{3, 4, 5}},
	}}
	sols := []bucketSolution{{Labels: []int{0, 0, 0}, K: 1}, {Labels: []int{0, 0, 0}, K: 1}}
	res, err := assembleSolutions(solver, part, sols)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 || res.GramBytes != 2*4*3*3 {
		t.Errorf("assembled %d clusters over %d Gram bytes, want 2 over 72", res.Clusters, res.GramBytes)
	}
	sols[1].K = 2
	if _, err := assembleSolutions(solver, part, sols); err == nil || !strings.Contains(err.Error(), "produced 2 clusters, planned 1") {
		t.Errorf("unplanned K: err = %v", err)
	}
}
