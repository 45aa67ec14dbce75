package lsh

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/matrix"
)

func fitTestEnsemble(t *testing.T, pts *matrix.Dense, ecfg EnsembleConfig) *Ensemble {
	t.Helper()
	e, err := FitEnsemble(pts, Config{M: 6, Seed: 5}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEnsembleDegenerateMatchesPartitionSignatures pins the byte-
// identity contract: one table and probing off must route through
// PartitionSignatures unchanged.
func TestEnsembleDegenerateMatchesPartitionSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := twoBlobs(rng, 50, 8)
	e := fitTestEnsemble(t, pts, EnsembleConfig{Tables: 1})

	sigs := e.Hash(pts)
	if sigs.NumTables() != 1 || sigs.Len() != 100 {
		t.Fatalf("signature set shape %d x %d", sigs.NumTables(), sigs.Len())
	}
	want := PartitionSignatures(sigs.Table(0), 1)
	got, err := e.Partition(pts, sigs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degenerate ensemble partition differs:\ngot  %+v\nwant %+v", got, want)
	}
	// The base hasher must be the verbatim single-table fit.
	single, err := Fit(pts, Config{M: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if single.Signature(pts.Row(i)) != sigs.Table(0)[i] {
			t.Fatalf("point %d: table-0 signature differs from Fit's", i)
		}
	}
}

// TestFitEnsembleTablesIndependent checks tables 1..L-1 are genuinely
// different draws while the whole fit stays seed-deterministic.
func TestFitEnsembleTablesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := twoBlobs(rng, 60, 10)
	e := fitTestEnsemble(t, pts, EnsembleConfig{Tables: 4})
	if e.Tables() != 4 {
		t.Fatalf("Tables = %d", e.Tables())
	}
	// Independence means independently drawn cut parameters, not
	// necessarily different signatures (cleanly separated blobs hash the
	// same under any sensible cut).
	fams := e.Families()
	base := fams[0].(*Hasher)
	for tbl := 1; tbl < 4; tbl++ {
		h := fams[tbl].(*Hasher)
		if reflect.DeepEqual(h.Dimensions(), base.Dimensions()) &&
			reflect.DeepEqual(h.Thresholds(), base.Thresholds()) {
			t.Errorf("table %d fit identical cut parameters to table 0; tables must be independent draws", tbl)
		}
	}
	e2 := fitTestEnsemble(t, pts, EnsembleConfig{Tables: 4})
	if !reflect.DeepEqual(e.Hash(pts), e2.Hash(pts)) {
		t.Error("same seed must fit identical ensembles")
	}
}

// TestEnsemblePartitionDeterministic runs the same non-degenerate
// partition at several GOMAXPROCS values; labels and bucket order must
// never vary (the parallel phase is the hash pass).
func TestEnsemblePartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := twoBlobs(rng, 80, 8)
	e := fitTestEnsemble(t, pts, EnsembleConfig{Tables: 4, ProbeRadius: 2})

	base := PartitionWith(e, pts, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := PartitionWith(e, pts, 1)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("procs=%d rep=%d: partition differs", procs, rep)
			}
		}
	}
}

// TestEnsemblePartitionIsDisjointCover: whatever the dial, the merged
// buckets must cover every point exactly once.
func TestEnsemblePartitionIsDisjointCover(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := twoBlobs(rng, 70, 6)
	for _, ecfg := range []EnsembleConfig{
		{Tables: 2},
		{Tables: 3, ProbeRadius: 1},
		{Tables: 2, ProbeRadius: 2, MaxMergedBucket: 30},
	} {
		e := fitTestEnsemble(t, pts, ecfg)
		p := PartitionWith(e, pts, 1)
		seen := make([]int, 140)
		for _, b := range p.Buckets {
			for _, idx := range b.Indices {
				seen[idx]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%+v: point %d appears %d times", ecfg, i, c)
			}
		}
	}
}

// TestEnsembleMergesAcrossTables builds two stub tables where table 1
// links two base buckets that table 0 separates; the merged partition
// must join them.
func TestEnsembleMergesAcrossTables(t *testing.T) {
	t0 := mapFamily{bits: 4, sigs: []uint64{0, 0, 5, 5}}
	t1 := mapFamily{bits: 4, sigs: []uint64{9, 9, 9, 9}} // all co-bucketed
	e, err := NewEnsemble([]Family{t0, t1}, EnsembleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionWith(e, indexPoints(4), -1)
	if p.NumBuckets() != 1 || len(p.Buckets[0].Indices) != 4 {
		t.Fatalf("cross-table merge failed: %+v", p.Buckets)
	}

	// With the cap below the merged size the union is refused and the
	// base buckets survive.
	capped, err := NewEnsemble([]Family{t0, t1}, EnsembleConfig{MaxMergedBucket: 3})
	if err != nil {
		t.Fatal(err)
	}
	p = PartitionWith(capped, indexPoints(4), -1)
	if p.NumBuckets() != 2 {
		t.Fatalf("cap ignored: %+v", p.Buckets)
	}
	for _, b := range p.Buckets {
		if len(b.Indices) > 3 {
			t.Fatalf("bucket of %d exceeds cap 3", len(b.Indices))
		}
	}
}

// TestEnsembleMultiProbeRecoversNearMiss puts two points one bit apart
// in the only table; exact bucketing separates them, one probe flip
// reunites them.
func TestEnsembleMultiProbeRecoversNearMiss(t *testing.T) {
	fam := mapFamily{bits: 4, sigs: []uint64{0b0101, 0b0100}}
	exact, err := NewEnsemble([]Family{fam, fam}, EnsembleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p := PartitionWith(exact, indexPoints(2), -1); p.NumBuckets() != 2 {
		t.Fatalf("exact bucketing should separate: %+v", p.Buckets)
	}
	probing, err := NewEnsemble([]Family{fam, fam}, EnsembleConfig{ProbeRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := PartitionWith(probing, indexPoints(2), -1); p.NumBuckets() != 1 {
		t.Fatalf("radius-1 probe should merge: %+v", p.Buckets)
	}
}

// TestProbeSequenceMarginOrder checks the flip order: lowest-margin
// bits first, then pairs by ascending total margin, never the original
// signature, no duplicates, capped length.
func TestProbeSequenceMarginOrder(t *testing.T) {
	margins := []float64{0.9, 0.1, 0.5, 0.3}
	sc := newProbeScratch()
	probes := probeSequence(0b0000, 4, margins, 2, 100, nil, sc)

	want := []uint64{
		0b0010, // flip bit 1 (margin .1)
		0b1000, // bit 3 (.3)
		0b1010, // bits 1+3 (.4)
		0b0100, // bit 2 (.5)
		0b0110, // bits 1+2 (.6)
		0b1100, // bits 2+3 (.8)
		0b0001, // bit 0 (.9)
		0b0011, // bits 0+1 (1.0)
		0b1001, // bits 0+3 (1.2)
		0b0101, // bits 0+2 (1.4)
	}
	if !reflect.DeepEqual(probes, want) {
		t.Fatalf("probe order:\ngot  %04b\nwant %04b", probes, want)
	}

	// Hamming fallback: nil margins, singles before pairs, sig ascending.
	probes = probeSequence(0b0000, 3, nil, 2, 100, nil, sc)
	want = []uint64{0b001, 0b010, 0b100, 0b011, 0b101, 0b110}
	if !reflect.DeepEqual(probes, want) {
		t.Fatalf("hamming fallback order:\ngot  %03b\nwant %03b", probes, want)
	}

	// maxProbes truncates.
	if got := probeSequence(0, 6, nil, 2, 4, nil, sc); len(got) != 4 {
		t.Fatalf("maxProbes=4 returned %d probes", len(got))
	}
	// Radius 0 yields nothing.
	if got := probeSequence(0, 6, nil, 0, 10, nil, sc); len(got) != 0 {
		t.Fatalf("radius 0 returned %d probes", len(got))
	}
}

// TestEnsembleConfigValidation exercises the dial bounds.
func TestEnsembleConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := twoBlobs(rng, 20, 6)
	cfg := Config{M: 6, Seed: 1}
	for _, bad := range []EnsembleConfig{
		{Tables: -1},
		{Tables: MaxTables + 1},
		{ProbeRadius: -1},
		{ProbeRadius: 7}, // > M
		{MaxMergedBucket: -1},
	} {
		if _, err := FitEnsemble(pts, cfg, bad); err == nil {
			t.Errorf("FitEnsemble accepted %+v", bad)
		}
	}
	if _, err := NewEnsemble(nil, EnsembleConfig{}); err == nil {
		t.Error("NewEnsemble accepted empty family list")
	}
}

// TestEnsembleFromMinHashRefits grows a multi-table ensemble out of one
// MinHash family; refit tables must be deterministic and distinct.
func TestEnsembleFromMinHashRefits(t *testing.T) {
	mh, err := FitMinHash(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := EnsembleFrom(mh, EnsembleConfig{Tables: 3, ProbeRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Tables() != 3 {
		t.Fatalf("Tables = %d", e.Tables())
	}
	v := []float64{0, 2, 0, 1, 5, 0, 0, 3}
	fams := e.Families()
	if fams[1].Signature(v) == fams[0].Signature(v) && fams[2].Signature(v) == fams[0].Signature(v) {
		t.Error("refit tables hash identically to table 0")
	}
	e2, _ := EnsembleFrom(mh, EnsembleConfig{Tables: 3})
	for tbl := 0; tbl < 3; tbl++ {
		if e.Families()[tbl].Signature(v) != e2.Families()[tbl].Signature(v) {
			t.Fatalf("table %d refit is not deterministic", tbl)
		}
	}
	// A non-refittable family cannot grow extra tables...
	sim := mapFamily{bits: 4, sigs: []uint64{1}}
	if _, err := EnsembleFrom(sim, EnsembleConfig{Tables: 2}); err == nil {
		t.Error("EnsembleFrom must reject Tables>1 for non-Refittable families")
	}
	// ...but passes through at Tables=1, and an Ensemble is identity.
	if _, err := EnsembleFrom(sim, EnsembleConfig{}); err != nil {
		t.Errorf("Tables=1 non-Refittable: %v", err)
	}
	if again, _ := EnsembleFrom(e, EnsembleConfig{}); again != e {
		t.Error("EnsembleFrom(*Ensemble) must be identity")
	}
}

func BenchmarkEnsemblePartition(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	pts := twoBlobs(rng, 512, 16)
	for _, ecfg := range []struct {
		name string
		cfg  EnsembleConfig
	}{
		{"L1R0", EnsembleConfig{Tables: 1}},
		{"L4R1", EnsembleConfig{Tables: 4, ProbeRadius: 1}},
	} {
		b.Run(ecfg.name, func(b *testing.B) {
			e, err := FitEnsemble(pts, Config{M: 8, Seed: 2}, ecfg.cfg)
			if err != nil {
				b.Fatal(err)
			}
			sigs := e.Hash(pts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Partition(pts, sigs, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mapFamily is a stub family with one fixed signature per point index;
// points are their own index via indexPoints.
type mapFamily struct {
	bits int
	sigs []uint64
}

func (f mapFamily) Bits() int { return f.bits }
func (f mapFamily) Signature(v []float64) uint64 {
	return f.sigs[int(v[0])]
}

// indexPoints builds an n x 1 matrix whose row i holds the value i, so
// stub families can address per-point signatures.
func indexPoints(n int) *matrix.Dense {
	pts := matrix.NewDense(n, 1)
	for i := 0; i < n; i++ {
		pts.Row(i)[0] = float64(i)
	}
	return pts
}
