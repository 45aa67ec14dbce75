package kernelml

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/lsh"
)

// pinHash is FNV-64a over a sequence of uint64s, little-endian.
type pinHash struct{ words []uint64 }

func (p *pinHash) ints(v ...int) {
	for _, x := range v {
		p.words = append(p.words, uint64(x))
	}
}

func (p *pinHash) floats(v ...float64) {
	for _, x := range v {
		p.words = append(p.words, math.Float64bits(x))
	}
}

func (p *pinHash) String() string {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range p.words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pmLabels maps mixture components to SVM classes: even +1, odd -1.
func pmLabels(labels []int) []int {
	y := make([]int, len(labels))
	for i, l := range labels {
		y[i] = 1 - 2*(l%2)
	}
	return y
}

// TestKernelMLPinned pins the bits of kernel k-means and SMO, monolithic
// and bucketed. Kernel k-means is the exact reference a bucketed run
// approximates, so a refactor of the Gram storage or the bucket share
// under these algorithms must reproduce every value; a change that
// moves one on purpose re-pins it and says why.
func TestKernelMLPinned(t *testing.T) {
	kf := kernel.Gaussian(0.7)

	small := blobs(t, 300, 4, 5, 0.1, 41)
	km, err := KernelKMeans(kernel.Gram(small.Points, kf), KernelKMeansConfig{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var h pinHash
	h.ints(km.Labels...)
	h.ints(km.Iterations)
	h.floats(km.Objective)
	if got, want := h.String(), "e39d3b78db154c60"; got != want {
		t.Errorf("KernelKMeans: hash %s, want %s", got, want)
	}

	svm, err := TrainSVM(kernel.GramWithDiagonal(small.Points, kf), pmLabels(small.Labels), SVMConfig{C: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h = pinHash{}
	for _, i := range svm.supportIndices() {
		h.ints(i)
		h.floats(svm.Alpha[i])
	}
	h.floats(svm.B)
	if got, want := h.String(), "7a1f76a46d74c827"; got != want {
		t.Errorf("TrainSVM: hash %s (%d support vectors), want %s", got, svm.SupportCount, want)
	}

	big := blobs(t, 700, 16, 5, 0.1, 42)
	hs, err := lsh.Fit(big.Points, lsh.Config{M: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	part := lsh.PartitionWith(hs, big.Points, 1)
	labels, clusters, err := BucketedKernelKMeans(big.Points, part, kf, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	h = pinHash{}
	h.ints(labels...)
	h.ints(clusters)
	if got, want := h.String(), "8ad39ffa5a285866"; got != want {
		t.Errorf("BucketedKernelKMeans: hash %s (%d clusters), want %s", got, clusters, want)
	}

	ens, err := TrainBucketedSVM(big.Points, pmLabels(big.Labels), hs, kf, SVMConfig{C: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h = pinHash{}
	for i := 0; i < big.Points.Rows(); i++ {
		h.ints(ens.Predict(big.Points.Row(i)))
	}
	if got, want := h.String(), "c0ba7155e5800ba5"; got != want {
		t.Errorf("TrainBucketedSVM: prediction hash %s, want %s", got, want)
	}
}

// TestBucketedKernelPCAPinned compares the bucketed kernel PCA embedding
// of a 700-point mixture with values recorded in testdata, to 1e-9 of
// each component's largest magnitude. The partition has a bucket above
// the dense eigensolver's 96-row cutoff, so the Lanczos path runs too.
func TestBucketedKernelPCAPinned(t *testing.T) {
	l := blobs(t, 700, 16, 5, 0.1, 42)
	hs, err := lsh.Fit(l.Points, lsh.Config{M: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	part := lsh.PartitionWith(hs, l.Points, 1)
	largest := 0
	for _, b := range part.Buckets {
		largest = max(largest, len(b.Indices))
	}
	if largest <= 96 {
		t.Fatalf("largest bucket %d rows: the Lanczos path does not run", largest)
	}
	emb, err := BucketedKernelPCA(l.Points, part, kernel.Gaussian(0.7), 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("testdata/bucketed_kpca.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want [][]float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var row []float64
		for _, field := range strings.Fields(sc.Text()) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				t.Fatal(err)
			}
			row = append(row, v)
		}
		want = append(want, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != emb.Rows() || len(want[0]) != emb.Cols() {
		t.Fatalf("embedding %dx%d, recorded %dx%d", emb.Rows(), emb.Cols(), len(want), len(want[0]))
	}
	for c := 0; c < emb.Cols(); c++ {
		var scale float64
		for _, row := range want {
			scale = max(scale, math.Abs(row[c]))
		}
		for r, row := range want {
			if got := emb.At(r, c); math.Abs(got-row[c]) > 1e-9*scale {
				t.Fatalf("embedding (%d, %d) = %v, recorded %v", r, c, got, row[c])
			}
		}
	}
}
