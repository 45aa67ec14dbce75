package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// selectOracle checks SelectKth(x, k) against sorting: the value is the
// one sort.Float64s places at k (== on values, so -0 and +0 are one
// value, as sorting does not order them), and x comes back a
// permutation of itself. An input holding NaN has no sorted order that
// SelectKth promises to match; for it only the permutation is checked,
// so the call must still return.
func selectOracle(t *testing.T, x []float64, k int) {
	t.Helper()
	want := slices.Clone(x)
	sort.Float64s(want)
	bits := bitsSorted(x)
	got := SelectKth(x, k)
	if !slices.Equal(bitsSorted(x), bits) {
		t.Fatalf("n=%d k=%d: SelectKth changed the multiset of values", len(x), k)
	}
	if slices.ContainsFunc(want, math.IsNaN) {
		return
	}
	if got != want[k] {
		t.Fatalf("n=%d k=%d: SelectKth = %v, sort places %v", len(x), k, got, want[k])
	}
}

func bitsSorted(x []float64) []uint64 {
	b := make([]uint64, len(x))
	for i, v := range x {
		b[i] = math.Float64bits(v)
	}
	slices.Sort(b)
	return b
}

// selectKs is k at 0, 5 %, 50 %, 95 % and n−1: the two span
// percentiles, the median and both ends.
func selectKs(n int) []int {
	return []int{0, int(0.05 * float64(n-1)), n / 2, int(math.Ceil(0.95 * float64(n-1))), n - 1}
}

func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1)}
	gens := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"normal", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			return x
		}},
		{"ties", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(rng.Intn(5))
			}
			return x
		}},
		{"specials", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = specials[rng.Intn(len(specials))]
			}
			return x
		}},
		{"constant", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = 2.5
			}
			return x
		}},
		{"ascending", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(i)
			}
			return x
		}},
		{"descending", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(n - i)
			}
			return x
		}},
		{"organ", func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(min(i, n-1-i))
			}
			return x
		}},
	}
	// Sizes below, at and above a sampling cutoff of about 600, and
	// ones whose sub-ranges cross it again.
	sizes := []int{1, 2, 3, 11, 12, 13, 100, 599, 600, 601, 602, 1201, 4096, 65536}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			for _, n := range sizes {
				for _, k := range selectKs(n) {
					selectOracle(t, g.gen(n), k)
				}
			}
		})
	}
}

func TestSelectKthPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("k=%d on 3 elements: no panic", k)
				}
			}()
			SelectKth([]float64{1, 2, 3}, k)
		}()
	}
}

// FuzzSelectKth holds SelectKth to sorting on inputs the fuzzer builds.
// The first byte picks the decoding: odd reads one value per byte from
// a small alphabet (ties, ±0, ±Inf and NaN), even reads raw float64
// bits eight bytes at a time.
func FuzzSelectKth(f *testing.F) {
	alpha := []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 1, 2, math.Inf(1), math.NaN(), 0.5}
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint32(4))
	f.Add(append([]byte{1}, make([]byte, 700)...), uint32(35))
	big := make([]byte, 1300)
	for i := range big {
		big[i] = byte(i*7 + i/13)
	}
	f.Add(big, uint32(1234))
	raw := []byte{0}
	for _, v := range []float64{3, -1, 2.5, math.Inf(1), math.Copysign(0, -1), 7} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw, uint32(2))
	f.Fuzz(func(t *testing.T, data []byte, k uint32) {
		if len(data) < 2 {
			return
		}
		var x []float64
		if data[0]&1 == 1 {
			for _, b := range data[1:] {
				x = append(x, alpha[int(b)%len(alpha)])
			}
		} else {
			for p := data[1:]; len(p) >= 8; p = p[8:] {
				x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(p)))
			}
		}
		if len(x) == 0 {
			return
		}
		selectOracle(t, x, int(k%uint32(len(x))))
	})
}

// BenchmarkSelectKth is one column of the LSH fit's span percentiles:
// p05 then p95 of 65 536 normals, each pass on a fresh copy.
func BenchmarkSelectKth(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	ks := selectKs(n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		SelectKth(x, ks[1])
		SelectKth(x, ks[3])
	}
}
