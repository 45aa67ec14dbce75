package lsh

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// fitFixture is an n x d dataset whose columns cycle through four
// shapes, so a fit meets every branch of the span and threshold rules:
// two separated modes (a histogram valley), one Gaussian mode (no
// balanced valley, the median fallback), a tf-idf-like column that is
// zero in nine rows of ten (the robust span), and values rounded to a
// few levels (ties in the order statistics). With d ≥ 8, column 7 is
// constant.
func fitFixture(n, d int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	pts := matrix.NewDense(n, d)
	for i := 0; i < n; i++ {
		row := pts.Row(i)
		for j := range row {
			scale := 1 + float64(j)/4
			switch {
			case j == 7:
				row[j] = 2.5
			case j%4 == 0:
				row[j] = scale * (rng.NormFloat64()*0.3 + float64(rng.Intn(2))*3)
			case j%4 == 1:
				row[j] = scale * rng.NormFloat64()
			case j%4 == 2:
				if rng.Intn(10) == 0 {
					row[j] = scale * rng.ExpFloat64()
				}
			default:
				row[j] = math.Round(rng.Float64() * 4 * scale)
			}
		}
	}
	return pts
}

// fitHash is FNV-64a over a hasher's dimensions and threshold bits.
func fitHash(h *Hasher) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for _, dim := range h.Dimensions() {
		binary.LittleEndian.PutUint64(b[:], uint64(dim))
		f.Write(b[:])
	}
	for _, th := range h.Thresholds() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(th))
		f.Write(b[:])
	}
	return f.Sum64()
}

// TestFitPinned pins what Fit chooses — dimensions and threshold bits —
// on four dataset shapes under every policy, so a rework of how Fit
// reads its rows must return exactly the hasher it returned before.
func TestFitPinned(t *testing.T) {
	configs := []Config{
		{},
		{M: 8, Policy: SpanWeighted, Seed: 3},
		{M: 5, Policy: Uniform, Bins: 7, Seed: 4},
	}
	want := map[string]uint64{
		"65536x16": 0xfa339c42ab51ca8d,
		"8192x32":  0xe010b0a76bfb9aa4,
		"4096x11":  0xd42bff827df655b9,
		"1000x3":   0xc9947d84d807ca87,
	}
	for _, shape := range []struct{ n, d int }{{65536, 16}, {8192, 32}, {4096, 11}, {1000, 3}} {
		name := fmt.Sprintf("%dx%d", shape.n, shape.d)
		pts := fitFixture(shape.n, shape.d, int64(shape.n+shape.d))
		f := fnv.New64a()
		var b [8]byte
		for _, cfg := range configs {
			h, err := Fit(pts, cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			binary.LittleEndian.PutUint64(b[:], fitHash(h))
			f.Write(b[:])
		}
		if got := f.Sum64(); got != want[name] {
			t.Errorf("%s: fit hash %016x, want %016x", name, got, want[name])
		}
	}
}

// mixtureFixture is n rows around k Gaussian centres in d dimensions,
// with per-dimension scales that differ, the shape of the benchmark's
// mixtures.
func mixtureFixture(n, d, k int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	centres := make([]float64, k*d)
	for i := range centres {
		centres[i] = rng.Float64() * 10
	}
	pts := matrix.NewDense(n, d)
	for i := 0; i < n; i++ {
		c := centres[rng.Intn(k)*d:][:d]
		for j, v := range c {
			pts.Set(i, j, v+rng.NormFloat64()*(0.2+float64(j%5)/10))
		}
	}
	return pts
}

// TestFitEnsemblePinned pins every table FitEnsemble fits — dimensions
// and threshold bits, table by table — on the 4-table shape of the
// corpus workload (d = 11) and on a 16-dimensional mixture, so sharing
// the fit's work between tables must return exactly the tables it
// returned when each table was fitted from scratch.
func TestFitEnsemblePinned(t *testing.T) {
	cases := []struct {
		name string
		pts  *matrix.Dense
		cfg  Config
		want uint64
	}{
		{"corpus-4096x11", fitFixture(4096, 11, 11), Config{}, 0xa6dfcf6b97c21651},
		{"corpus-4096x11-uniform", fitFixture(4096, 11, 12), Config{M: 5, Policy: Uniform, Bins: 7, Seed: 9}, 0xc567f0e62fe1b2d6},
		{"mixture-8192x16", mixtureFixture(8192, 16, 8, 3), Config{Seed: 2}, 0x8fda78f9c9a9b165},
	}
	for _, tc := range cases {
		e, err := FitEnsemble(tc.pts, tc.cfg, EnsembleConfig{Tables: 4, ProbeRadius: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f := fnv.New64a()
		var b [8]byte
		for _, fam := range e.Families() {
			binary.LittleEndian.PutUint64(b[:], fitHash(fam.(*Hasher)))
			f.Write(b[:])
		}
		if got := f.Sum64(); got != tc.want {
			t.Errorf("%s: ensemble fit hash %016x, want %016x", tc.name, got, tc.want)
		}
	}
}

// BenchmarkFit fits the default hasher on 65 536 x 16 rows, the shape
// of a full-sample fit on the shipped TCP mixture.
func BenchmarkFit(b *testing.B) {
	pts := fitFixture(65536, 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(pts, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
