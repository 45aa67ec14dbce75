package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/kernel"
)

func TestClusterIncrementalMatchesBatch(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	cfg := Config{K: 4, Seed: 41}
	batch, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Run(bg, Source{Points: l.Points}, withBudget(batch.GramBytes, cfg)) // one wave fits
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch.Labels {
		if batch.Labels[i] != inc.Labels[i] {
			t.Fatal("incremental driver must reproduce batch labels")
		}
	}
	if inc.GramBytes != batch.GramBytes || inc.Clusters != batch.Clusters {
		t.Fatalf("bookkeeping differs: %+v vs %+v", *inc, *batch)
	}
}

func TestClusterIncrementalRespectsBudget(t *testing.T) {
	l := mixture(t, 300, 12, 6, 0.03, 42)
	cfg := Config{K: 6, Seed: 43, M: 6}
	full, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Budget = half the total Gram: must need at least 2 waves and keep
	// the peak within budget unless a single bucket exceeds it.
	budget := full.GramBytes/2 + 1
	var largest int64
	for _, b := range full.Buckets {
		if b.GramBytes > largest {
			largest = b.GramBytes
		}
	}
	inc, err := Run(bg, Source{Points: l.Points}, withBudget(budget, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Waves < 2 {
		t.Fatalf("waves = %d, want >= 2 under a half budget", inc.Waves)
	}
	limit := budget
	if largest > limit {
		limit = largest
	}
	if inc.PeakGramBytes > limit {
		t.Fatalf("peak %d exceeds limit %d", inc.PeakGramBytes, limit)
	}
	// Same labels as batch regardless of wave packing.
	for i := range full.Labels {
		if full.Labels[i] != inc.Labels[i] {
			t.Fatal("wave packing changed the labels")
		}
	}
}

// TestClusterIncrementalValidation: a negative budget is an error and a
// zero one is no bound — one wave.
func TestClusterIncrementalValidation(t *testing.T) {
	l := mixture(t, 20, 4, 2, 0.05, 44)
	if _, err := Run(bg, Source{Points: l.Points}, withBudget(-1, Config{K: 2})); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative budget: err = %v, want ErrBadConfig", err)
	}
	if res, err := Run(bg, Source{Points: l.Points}, withBudget(0, Config{K: 2})); err != nil {
		t.Fatal(err)
	} else if res.Waves != 1 {
		t.Fatalf("zero budget: %d waves, want one", res.Waves)
	}
	if _, err := Run(bg, Source{Points: l.Points}, withBudget(1<<20, Config{K: 99})); err == nil {
		t.Fatal("expected config error")
	}
}

func TestClusterIncrementalOversizedBucket(t *testing.T) {
	// A budget smaller than the largest bucket still completes; the
	// peak simply reports the irreducible bucket.
	l := mixture(t, 120, 8, 2, 0.02, 45)
	inc, err := Run(bg, Source{Points: l.Points}, withBudget(8, Config{K: 2, Seed: 46}))
	if err != nil {
		t.Fatal(err)
	}
	if inc.PeakGramBytes <= 8 {
		t.Fatalf("peak %d should exceed the tiny budget", inc.PeakGramBytes)
	}
	if len(inc.Labels) != 120 {
		t.Fatalf("labels = %d", len(inc.Labels))
	}
}

// TestClusterIncrementalWavesPinned: the bounded-memory driver is the
// in-process runner with a budget, packing waves from the solve stage's
// plan. At a budget nothing fits, at exactly the largest bucket's dense
// footprint and at no bound at all it must label like an unbounded Run
// and report the waves and peak the dedicated runner it replaced
// reported (commit bbdcb14) — on an exact run and on one mixing
// embedded, dense and trivial buckets, where the peak counts embedded
// rows, not Grams. Its embedded buckets are landmark buckets since the
// landmark class took those whose 4·Ki fits EmbedDim: the unbounded
// peak was re-pinned from 73 872 to 66 480 bytes, exactly Σ 8·Ni·(16 − m)
// over its six landmark buckets lower.
func TestClusterIncrementalWavesPinned(t *testing.T) {
	for _, fx := range []struct {
		name    string
		noise   float64
		n       int
		cfg     Config
		largest int64
		want    [3][2]int64 // waves, peak at budgets 1, largest, unbounded
	}{
		{"exact", 0.03, 300, Config{K: 6, Seed: 43, M: 6},
			40000, [3][2]int64{{5, 40000}, {3, 40000}, {1, 80008}}},
		{"mixed", 0.2, 600, Config{K: 24, Seed: 43, M: 4, P: -1, EmbedDim: 16, EmbedCutoff: 60},
			41616, [3][2]int64{{15, 13056}, {2, 37904}, {1, 66480}}},
	} {
		l := mixture(t, fx.n, 12, 6, fx.noise, 42)
		full, err := Run(bg, Source{Points: l.Points}, fx.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var largest int64
		for _, b := range full.Buckets {
			largest = max(largest, kernel.GramBytes(b.Size))
		}
		if largest != fx.largest {
			t.Fatalf("%s: largest bucket's dense footprint %d, fixture expects %d", fx.name, largest, fx.largest)
		}
		for i, budget := range []int64{1, largest, math.MaxInt64} {
			inc, err := Run(bg, Source{Points: l.Points}, withBudget(budget, fx.cfg))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inc.Labels, full.Labels) || inc.GramBytes != full.GramBytes {
				t.Errorf("%s budget %d: labels or Gram accounting differ from Cluster", fx.name, budget)
			}
			if got := [2]int64{int64(inc.Waves), inc.PeakGramBytes}; got != fx.want[i] {
				t.Errorf("%s budget %d: (waves, peak) = %v, pinned %v", fx.name, budget, got, fx.want[i])
			}
		}
	}
}
