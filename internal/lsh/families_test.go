package lsh

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// families under test that work on dense blob data.
func denseFamilies(t *testing.T, pts *matrix.Dense, m int) map[string]Family {
	t.Helper()
	sim, err := FitSimHash(pts, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := FitSpectral(pts, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Fit(pts, Config{M: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Family{"simhash": sim, "spectral": spec, "paper": paper}
}

func TestFamiliesSeparateBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := twoBlobs(rng, 40, 8)
	for name, f := range denseFamilies(t, pts, 6) {
		if f.Bits() != 6 {
			t.Fatalf("%s: Bits = %d", name, f.Bits())
		}
		// Same-blob signatures must agree far more often than
		// cross-blob ones.
		same, cross := 0, 0
		for i := 0; i < 40; i++ {
			if f.Signature(pts.Row(i)) == f.Signature(pts.Row((i+1)%40)) {
				same++
			}
			if f.Signature(pts.Row(i)) == f.Signature(pts.Row(40+i)) {
				cross++
			}
		}
		if same <= cross {
			t.Fatalf("%s: same=%d cross=%d", name, same, cross)
		}
	}
}

func TestFamiliesValidation(t *testing.T) {
	empty := matrix.NewDense(0, 0)
	if _, err := FitSimHash(empty, 4, 1); err == nil {
		t.Fatal("SimHash must reject empty data")
	}
	if _, err := FitSpectral(empty, 4, 1); err == nil {
		t.Fatal("Spectral must reject empty data")
	}
	pts := matrix.NewDense(4, 2)
	if _, err := FitSimHash(pts, 0, 1); err == nil {
		t.Fatal("SimHash must reject M=0")
	}
	if _, err := FitSpectral(pts, 99, 1); err == nil {
		t.Fatal("Spectral must reject M>64")
	}
	if _, err := FitMinHash(0, 1); err == nil {
		t.Fatal("MinHash must reject M=0")
	}
}

func TestPartitionWith(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := twoBlobs(rng, 30, 6)
	sim, err := FitSimHash(pts, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionWith(sim, pts, 1)
	total := 0
	for _, b := range p.Buckets {
		total += len(b.Indices)
	}
	if total != 60 {
		t.Fatalf("partition covers %d points", total)
	}
	if p.NumBuckets() < 2 {
		t.Fatalf("blobs should land in separate buckets, got %d", p.NumBuckets())
	}
}

func TestSpectralBitsBalanced(t *testing.T) {
	// Median thresholds must split the data roughly in half per bit —
	// the property the paper wants for skewed data.
	rng := rand.New(rand.NewSource(4))
	pts := matrix.NewDense(200, 10)
	for i := range pts.Data() {
		pts.Data()[i] = rng.ExpFloat64() // heavily skewed
	}
	spec, err := FitSpectral(pts, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 4; bit++ {
		ones := 0
		for i := 0; i < 200; i++ {
			if spec.Signature(pts.Row(i))>>uint(bit)&1 == 1 {
				ones++
			}
		}
		if ones < 40 || ones > 160 {
			t.Fatalf("bit %d fires for %d/200 points; want balanced", bit, ones)
		}
	}
}

func TestMinHashSets(t *testing.T) {
	mh, err := FitMinHash(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mh.Bits() != 16 {
		t.Fatalf("Bits = %d", mh.Bits())
	}
	// Identical supports hash identically regardless of magnitudes.
	a := []float64{0, 3, 0, 1, 0, 0.5}
	b := []float64{0, 9, 0, 7, 0, 2.5}
	if mh.Signature(a) != mh.Signature(b) {
		t.Fatal("MinHash must depend only on the support")
	}
	// Similar supports are closer in Hamming distance than disjoint ones.
	c := []float64{0, 3, 0, 1, 0, 0} // drops one element
	d := []float64{5, 0, 2, 0, 7, 0} // disjoint support
	near := HammingDistance(mh.Signature(a), mh.Signature(c))
	far := HammingDistance(mh.Signature(a), mh.Signature(d))
	if near >= far {
		t.Fatalf("near=%d far=%d", near, far)
	}
	// Empty support maps to 0.
	if mh.Signature([]float64{0, 0, 0}) != 0 {
		t.Fatal("empty support must hash to 0")
	}
}

func TestFamiliesDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := twoBlobs(rng, 20, 4)
	s1, _ := FitSimHash(pts, 8, 42)
	s2, _ := FitSimHash(pts, 8, 42)
	for i := 0; i < pts.Rows(); i++ {
		if s1.Signature(pts.Row(i)) != s2.Signature(pts.Row(i)) {
			t.Fatal("SimHash not deterministic per seed")
		}
	}
}
