package kernelml

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/lsh"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

func blobs(t *testing.T, n, d, k int, noise float64, seed int64) *dataset.Labeled {
	t.Helper()
	l, err := dataset.Mixture(dataset.MixtureConfig{N: n, D: d, K: k, Noise: noise, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestKernelKMeansRecoversBlobs(t *testing.T) {
	l := blobs(t, 90, 8, 3, 0.02, 1)
	gram := kernel.Gram(l.Points, kernel.Gaussian(0.5))
	res, err := KernelKMeans(gram, KernelKMeansConfig{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("kernel k-means accuracy = %v", acc)
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
}

func TestKernelKMeansValidation(t *testing.T) {
	if _, err := KernelKMeans(matrix.NewDense(2, 3), KernelKMeansConfig{K: 1}); err == nil {
		t.Fatal("expected error for non-square gram")
	}
	g := matrix.NewDense(3, 3)
	if _, err := KernelKMeans(g, KernelKMeansConfig{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := KernelKMeans(g, KernelKMeansConfig{K: 4}); err == nil {
		t.Fatal("expected error for K>n")
	}
}

func TestKernelKMeansDeterministic(t *testing.T) {
	l := blobs(t, 60, 4, 2, 0.05, 3)
	gram := kernel.Gram(l.Points, kernel.Gaussian(0.5))
	a, err := KernelKMeans(gram, KernelKMeansConfig{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KernelKMeans(gram, KernelKMeansConfig{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed must reproduce labels")
		}
	}
}

func TestKernelPCASeparatesBlobsInOneComponent(t *testing.T) {
	l := blobs(t, 80, 6, 2, 0.02, 4)
	res, err := KernelPCA(upper(t, kernel.GramWithDiagonal(l.Points, kernel.Gaussian(1))), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Projections.Rows() != 80 || res.Projections.Cols() != 2 {
		t.Fatalf("projection dims %dx%d", res.Projections.Rows(), res.Projections.Cols())
	}
	// The first component must separate the two blobs by sign or by a
	// threshold — check means differ strongly relative to spread.
	var m0, m1 float64
	var n0, n1 int
	for i := 0; i < 80; i++ {
		if l.Labels[i] == 0 {
			m0 += res.Projections.At(i, 0)
			n0++
		} else {
			m1 += res.Projections.At(i, 0)
			n1++
		}
	}
	m0 /= float64(n0)
	m1 /= float64(n1)
	if math.Abs(m0-m1) < 0.1 {
		t.Fatalf("first component does not separate blobs: %v vs %v", m0, m1)
	}
	// Eigenvalues descending and non-negative after clamping.
	if res.Eigenvalues[0] < res.Eigenvalues[1] {
		t.Fatalf("eigenvalues not sorted: %v", res.Eigenvalues)
	}
}

// upper views the upper triangle of the square matrix m.
func upper(t *testing.T, m *matrix.Dense) *matrix.Sym {
	t.Helper()
	v, err := matrix.UpperSym(m)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestKernelPCAValidation(t *testing.T) {
	if _, err := KernelPCA(upper(t, matrix.NewDense(0, 0)), 1); err == nil {
		t.Fatal("expected error for empty")
	}
	if _, err := KernelPCA(upper(t, matrix.NewDense(3, 3)), 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	// k > n clamps.
	g := kernel.GramWithDiagonal(blobs(t, 5, 2, 2, 0.05, 5).Points, kernel.Gaussian(1))
	res, err := KernelPCA(upper(t, g), 10)
	if err != nil || res.Projections.Cols() != 5 {
		t.Fatalf("clamp: %v %v", res, err)
	}
}

func TestCenterGramZeroRowMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 12
	packed := make([]float64, matrix.PackedLen(n))
	for i := range packed {
		packed[i] = rng.Float64()
	}
	g, err := matrix.NewPackedSym(n, packed)
	if err != nil {
		t.Fatal(err)
	}
	centerGram(g)
	for i, s := range g.RowSums() {
		if m := s / float64(n); math.Abs(m) > 1e-10 {
			t.Fatalf("row %d mean = %v after centering", i, m)
		}
	}
}

// svmData builds a linearly separated two-class problem with labels
// in {-1, +1}.
func svmData(t *testing.T, n int, seed int64) (*matrix.Dense, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := matrix.NewDense(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		cx := float64(cls) * 3
		pts.Set(i, 0, cx+rng.NormFloat64()*0.3)
		pts.Set(i, 1, rng.NormFloat64()*0.3)
		if cls == 0 {
			y[i] = -1
		} else {
			y[i] = 1
		}
	}
	return pts, y
}

func TestTrainSVMSeparable(t *testing.T) {
	pts, y := svmData(t, 60, 7)
	kf := kernel.Gaussian(1)
	gram := kernel.GramWithDiagonal(pts, kf)
	model, err := TrainSVM(gram, y, SVMConfig{C: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if model.SupportCount == 0 {
		t.Fatal("no support vectors")
	}
	correct := 0
	for i := 0; i < pts.Rows(); i++ {
		if model.Predict(pts, kf, pts.Row(i)) == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(pts.Rows()) < 0.95 {
		t.Fatalf("training accuracy = %d/%d", correct, pts.Rows())
	}
}

func TestTrainSVMValidation(t *testing.T) {
	g := kernel.GramWithDiagonal(matrix.Identity(3), kernel.Gaussian(1))
	if _, err := TrainSVM(g, []int{1, -1}, SVMConfig{}); err == nil {
		t.Fatal("expected label-length error")
	}
	if _, err := TrainSVM(g, []int{1, -1, 2}, SVMConfig{}); err == nil {
		t.Fatal("expected label-value error")
	}
	if _, err := TrainSVM(matrix.NewDense(2, 3), []int{1, -1}, SVMConfig{}); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := TrainSVM(matrix.NewDense(0, 0), nil, SVMConfig{}); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := TrainSVM(g, []int{1, -1, 1}, SVMConfig{C: -1}); err == nil {
		t.Fatal("expected negative-C error")
	}
}

// TestTrainSVMSingleClass: one training point, or several of one class,
// give the constant model of that class instead of a panic or a
// zero-bias model that answers +1 everywhere.
func TestTrainSVMSingleClass(t *testing.T) {
	kf := kernel.Gaussian(1)
	one := matrix.Identity(1)
	m, err := TrainSVM(kernel.GramWithDiagonal(one, kf), []int{1}, SVMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.B != 1 || m.SupportCount != 0 || m.Predict(one, kf, []float64{5}) != 1 {
		t.Fatalf("one point of class +1: B = %v, %d support vectors", m.B, m.SupportCount)
	}
	pts := matrix.Identity(3)
	m, err = TrainSVM(kernel.GramWithDiagonal(pts, kf), []int{-1, -1, -1}, SVMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.B != -1 || m.SupportCount != 0 {
		t.Fatalf("three points of class -1: B = %v, %d support vectors", m.B, m.SupportCount)
	}
	for i := 0; i < 3; i++ {
		if got := m.Predict(pts, kf, pts.Row(i)); got != -1 {
			t.Fatalf("Predict(point %d) = %d, want -1", i, got)
		}
	}
}

func TestBucketedKernelKMeans(t *testing.T) {
	l := blobs(t, 160, 8, 4, 0.02, 8)
	kf := kernel.Gaussian(0.5)
	h, err := lsh.Fit(l.Points, lsh.Config{M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	part := lsh.PartitionWith(h, l.Points, 1)
	labels, clusters, err := BucketedKernelKMeans(l.Points, part, kf, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clusters < 2 {
		t.Fatalf("clusters = %d", clusters)
	}
	acc, err := metrics.Accuracy(l.Labels, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("bucketed kernel k-means accuracy = %v", acc)
	}
	if _, _, err := BucketedKernelKMeans(l.Points, part, kf, 0, 1); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestBucketedKernelPCA(t *testing.T) {
	l := blobs(t, 120, 6, 3, 0.03, 9)
	kf := kernel.Gaussian(0.8)
	h, err := lsh.Fit(l.Points, lsh.Config{M: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	part := lsh.PartitionWith(h, l.Points, 1)
	emb, err := BucketedKernelPCA(l.Points, part, kf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Rows() != 120 || emb.Cols() != 2 {
		t.Fatalf("embedding %dx%d", emb.Rows(), emb.Cols())
	}
	var nonzero int
	for _, v := range emb.Data() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("embedding is all zeros")
	}
	if _, err := BucketedKernelPCA(l.Points, part, kf, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestBucketedSVMEndToEnd(t *testing.T) {
	pts, y := svmData(t, 200, 10)
	kf := kernel.Gaussian(1)
	fam, err := lsh.FitSimHash(pts, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := TrainBucketedSVM(pts, y, fam, kf, SVMConfig{C: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ens.Buckets() < 1 {
		t.Fatal("no bucket models")
	}
	correct := 0
	for i := 0; i < pts.Rows(); i++ {
		if ens.Predict(pts.Row(i)) == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(pts.Rows()) < 0.9 {
		t.Fatalf("bucketed SVM training accuracy = %d/%d", correct, pts.Rows())
	}
	// A fresh point near class +1 must classify as +1, even if its
	// signature is unseen.
	if got := ens.Predict([]float64{3, 0}); got != 1 {
		t.Fatalf("Predict(+1 region) = %d", got)
	}
	if got := ens.Predict([]float64{0, 0}); got != -1 {
		t.Fatalf("Predict(-1 region) = %d", got)
	}
}

func TestTrainBucketedSVMValidation(t *testing.T) {
	pts, y := svmData(t, 20, 11)
	fam, err := lsh.FitSimHash(pts, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainBucketedSVM(pts, y[:10], fam, kernel.Gaussian(1), SVMConfig{}); err == nil {
		t.Fatal("expected label-length error")
	}
	if _, err := TrainBucketedSVM(matrix.NewDense(0, pts.Cols()), nil, fam, kernel.Gaussian(1), SVMConfig{}); !errors.Is(err, ErrEmptyGram) {
		t.Fatalf("zero rows: err = %v, want ErrEmptyGram", err)
	}
}

func TestBucketedSVMSingleClassBucket(t *testing.T) {
	// All labels +1: every bucket is single-class and predicts +1.
	rng := rand.New(rand.NewSource(12))
	pts := matrix.NewDense(30, 2)
	for i := range pts.Data() {
		pts.Data()[i] = rng.Float64()
	}
	y := make([]int, 30)
	for i := range y {
		y[i] = 1
	}
	fam, err := lsh.FitSimHash(pts, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := TrainBucketedSVM(pts, y, fam, kernel.Gaussian(1), SVMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if ens.Predict(pts.Row(i)) != 1 {
			t.Fatal("single-class ensemble must predict the class")
		}
	}
}

func TestBucketedSVMWithEnsembleFamily(t *testing.T) {
	// An *lsh.Ensemble passed as the family must train on the merged
	// multi-table partition and still route predictions through the
	// table-0 signature.
	pts, y := svmData(t, 160, 13)
	e, err := lsh.FitEnsemble(pts, lsh.Config{M: 4, Seed: 1},
		lsh.EnsembleConfig{Tables: 3, ProbeRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := TrainBucketedSVM(pts, y, e, kernel.Gaussian(1), SVMConfig{C: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ens.Buckets() < 1 {
		t.Fatal("no bucket models")
	}
	correct := 0
	for i := 0; i < pts.Rows(); i++ {
		if ens.Predict(pts.Row(i)) == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(pts.Rows()) < 0.9 {
		t.Fatalf("ensemble-bucketed SVM training accuracy = %d/%d", correct, pts.Rows())
	}
	// Merging across tables can only coarsen the partition: never more
	// buckets than the single-table split.
	single := lsh.PartitionWith(e.Families()[0], pts, 1)
	if ens.Buckets() > single.NumBuckets() {
		t.Fatalf("ensemble produced %d buckets, single table %d", ens.Buckets(), single.NumBuckets())
	}
}
