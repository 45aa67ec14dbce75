package embed

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/matrix"
)

func randPoints(rng *rand.Rand, n, d int) *matrix.Dense {
	m := matrix.NewDense(n, d)
	data := m.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return m
}

func embedAll(t *testing.T, e *RFF, points *matrix.Dense) []float64 {
	t.Helper()
	dst := make([]float64, points.Rows()*e.Dim())
	if err := e.TransformInto(dst, points, nil); err != nil {
		t.Fatalf("TransformInto: %v", err)
	}
	return dst
}

// TestRFFApproximatesGaussianKernel is the concentration property test:
// over sampled pairs, the embedded dot product approximates the
// Gaussian kernel within the Hoeffding bound for an average of m
// bounded terms, and the measured error tightens as d′ grows.
func TestRFFApproximatesGaussianKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n, d, pairs = 80, 12, 400
	const sigma = 1.4
	points := randPoints(rng, n, d)
	kf := kernel.NewGaussian(sigma)

	type pair struct{ a, b int }
	sampled := make([]pair, pairs)
	for p := range sampled {
		sampled[p] = pair{rng.Intn(n), rng.Intn(n)}
	}

	maxErrAt := func(dim int) float64 {
		e, err := NewRFF(d, dim, sigma, 7)
		if err != nil {
			t.Fatalf("NewRFF(dim=%d): %v", dim, err)
		}
		emb := embedAll(t, e, points)
		var worst float64
		for _, pr := range sampled {
			var dot float64
			ra, rb := emb[pr.a*dim:(pr.a+1)*dim], emb[pr.b*dim:(pr.b+1)*dim]
			for t2, v := range ra {
				dot += v * rb[t2]
			}
			got := math.Abs(dot - kf.Eval(points.Row(pr.a), points.Row(pr.b)))
			if got > worst {
				worst = got
			}
		}
		return worst
	}

	dims := []int{32, 128, 512}
	errs := make([]float64, len(dims))
	for i, dim := range dims {
		errs[i] = maxErrAt(dim)
		// Hoeffding for an average of m = dim/2 terms in [-1, 1], union
		// bound over the sampled pairs at failure probability 1e-3:
		// t = sqrt(2 ln(2·pairs/δ) / m).
		m := float64(dim / 2)
		bound := math.Sqrt(2 * math.Log(2*pairs/1e-3) / m)
		if errs[i] > bound {
			t.Fatalf("dim %d: max |<phi,phi> - k| = %v exceeds concentration bound %v", dim, errs[i], bound)
		}
	}
	if errs[len(errs)-1] >= errs[0] {
		t.Fatalf("approximation did not tighten with d': errs = %v for dims %v", errs, dims)
	}
}

// TestRFFPerRowPurity pins the determinism contract: embedding a subset
// of rows is bitwise identical to slicing those rows out of a
// whole-dataset embedding, for ragged and aligned subsets alike.
func TestRFFPerRowPurity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points := randPoints(rng, 300, 9)
	e, err := NewRFF(9, 26, 1.1, 42) // 13 frequencies: ragged DotBlock tail
	if err != nil {
		t.Fatal(err)
	}
	whole := embedAll(t, e, points)
	for _, indices := range [][]int{
		{0}, {299}, {17, 3, 250, 8}, rangeInts(5, 200),
	} {
		sub := make([]float64, len(indices)*e.Dim())
		if err := e.TransformInto(sub, points, indices); err != nil {
			t.Fatal(err)
		}
		for a, idx := range indices {
			for j := 0; j < e.Dim(); j++ {
				if sub[a*e.Dim()+j] != whole[idx*e.Dim()+j] {
					t.Fatalf("row %d coord %d: subset %v, whole %v", idx, j, sub[a*e.Dim()+j], whole[idx*e.Dim()+j])
				}
			}
		}
	}
}

// TestTransformWorkerCountInvariant checks the transform produces
// bitwise identical output at GOMAXPROCS 1 and 8.
func TestTransformWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	points := randPoints(rng, 500, 8)
	e, err := NewRFF(8, 16, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(1)
	serial := embedAll(t, e, points)
	runtime.GOMAXPROCS(8)
	parallel := embedAll(t, e, points)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("coord %d differs across worker counts: %v vs %v", i, serial[i], parallel[i])
		}
	}
}

func TestRFFSeedReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points := randPoints(rng, 20, 4)
	a, err := NewRFF(4, 8, 1.0, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRFF(4, 8, 1.0, 99)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := embedAll(t, a, points), embedAll(t, b, points)
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same seed diverged at coord %d", i)
		}
	}
	c, err := NewRFF(4, 8, 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	ec := embedAll(t, c, points)
	same := true
	for i := range ea {
		if ea[i] != ec[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical embeddings")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewRFF(0, 8, 1, 1); err == nil {
		t.Error("RFF accepted zero input dim")
	}
	if _, err := NewRFF(4, 7, 1, 1); err == nil {
		t.Error("RFF accepted odd dim")
	}
	if _, err := NewRFF(4, 8, 0, 1); err == nil {
		t.Error("RFF accepted zero sigma")
	}
}

func TestTransformValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := randPoints(rng, 10, 4)
	e, err := NewRFF(4, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.TransformInto(make([]float64, 5), points, nil); err == nil {
		t.Error("short dst accepted")
	}
	if err := e.TransformInto(make([]float64, 8), points, []int{10}); err == nil {
		t.Error("out-of-range index accepted")
	}
	wrong := randPoints(rng, 3, 5)
	if err := e.TransformInto(make([]float64, 24), wrong, nil); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
