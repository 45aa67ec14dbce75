package kernelml

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lsh"
	"repro/internal/matrix"
)

// This file composes the kernel algorithms with the DASC bucket
// partition, the same way internal/core composes spectral clustering:
// the LSH front-end shrinks the Gram matrix to per-bucket blocks and
// the kernel algorithm runs independently per bucket. It demonstrates
// the paper's claim that the approximation is algorithm-independent.
//
// Buckets are independent, so KMeans and PCA solve them on
// lsh.EachBucket in LPT order (largest bucket first — solve cost grows
// like Ni^2 and beyond), the loop internal/core runs its buckets on;
// global label offsets are prefix-summed up front so the parallel result
// is identical to sequential execution; each bucket's share of the
// global K is core.BucketK, the DASC drivers' rule. Sub-Grams are built
// in the loop's scratch, mapped at the largest bucket's size: packed by
// kernel.SubGramPacked for PCA, which reads only the upper triangle, and
// n x n by kernel.SubGramPooled for k-means and SMO, which scan whole
// rows (on the packed triangle with gathered rows they ran 1.5–3.4x
// slower).

// BucketedKernelKMeans runs kernel k-means inside every bucket of the
// partition, allocating the global cluster budget k proportionally
// (core.BucketK). Returned labels are globally unique across buckets.
func BucketedKernelKMeans(points *matrix.Dense, part *lsh.Partition, kf kernel.Kernel, k int, seed int64) ([]int, int, error) {
	n := points.Rows()
	if k < 1 || k > n {
		return nil, 0, fmt.Errorf("kernelml: K=%d with %d points", k, n)
	}
	// Per-bucket cluster counts and their prefix-sum offsets, computed
	// up front so every bucket's global label range is known before the
	// parallel solves and the output matches sequential execution.
	counts := make([]int, len(part.Buckets))
	offsets := make([]int, len(part.Buckets))
	total := 0
	for bi, b := range part.Buckets {
		counts[bi] = core.BucketK(k, len(b.Indices), n)
		offsets[bi] = total
		total += counts[bi]
	}
	labels := make([]int, n)
	need := func(bi int) int { ni := len(part.Buckets[bi].Indices); return ni * ni }
	err := lsh.EachBucket(context.Background(), part.LPTOrder(), need, func(bi int, scratch *[]float64) error {
		b := part.Buckets[bi]
		ni := len(b.Indices)
		if counts[bi] >= ni {
			for pos, idx := range b.Indices {
				labels[idx] = offsets[bi] + pos
			}
			return nil
		}
		sub, err := kernel.SubGramPooled(points, b.Indices, kf, scratch, false)
		if err != nil {
			return err
		}
		res, err := KernelKMeans(sub, KernelKMeansConfig{K: counts[bi], Seed: seed + int64(b.Signature)})
		if err != nil {
			return fmt.Errorf("kernelml: bucket %x: %w", b.Signature, err)
		}
		for pos, idx := range b.Indices {
			labels[idx] = offsets[bi] + res.Labels[pos]
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("kernelml: kmeans: %w", err)
	}
	return labels, total, nil
}

// BucketedKernelPCA computes k kernel principal components inside every
// bucket and returns the n x k embedding (rows of points outside any
// bucket stay zero, which cannot happen for a partition that covers the
// dataset). Component axes are per-bucket, as the Gram approximation
// has no cross-bucket similarities by construction.
func BucketedKernelPCA(points *matrix.Dense, part *lsh.Partition, kf kernel.Kernel, k int) (*matrix.Dense, error) {
	if k < 1 {
		return nil, fmt.Errorf("kernelml: k=%d", k)
	}
	out := matrix.NewDense(points.Rows(), k)
	need := func(bi int) int { return matrix.PackedLen(len(part.Buckets[bi].Indices)) }
	err := lsh.EachBucket(context.Background(), part.LPTOrder(), need, func(bi int, scratch *[]float64) error {
		b := part.Buckets[bi]
		if len(b.Indices) == 1 {
			return nil // a singleton has no variance to decompose
		}
		sub, err := kernel.SubGramPacked(points, b.Indices, kf, scratch)
		if err != nil {
			return err
		}
		for i, idx := range b.Indices {
			sub.Row(i)[0] = kf.Eval(points.Row(idx), points.Row(idx))
		}
		res, err := KernelPCA(sub, k)
		if err != nil {
			return fmt.Errorf("kernelml: bucket %x: %w", b.Signature, err)
		}
		for pos, idx := range b.Indices {
			copy(out.Row(idx), res.Projections.Row(pos))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kernelml: pca: %w", err)
	}
	return out, nil
}

// BucketedSVM is a locality-sensitive SVM ensemble: one binary SVM per
// bucket, each trained on its bucket's (diagonal-complete) sub-Gram.
// At prediction time the LSH family routes the query to its bucket's
// model — training cost falls from O(N^2) kernel entries to
// sum(Ni^2), mirroring DASC's clustering savings.
type BucketedSVM struct {
	family lsh.Family
	points *matrix.Dense
	kf     kernel.Kernel
	models map[uint64]*bucketModel
	// Fallback handles signatures never seen in training: the model of
	// the nearest training signature by Hamming distance.
	signatures []uint64
}

type bucketModel struct {
	svm     *SVM
	indices []int
}

// TrainBucketedSVM trains the per-bucket ensemble. y must be -1/+1 per
// training point. Buckets whose labels are single-class get TrainSVM's
// constant model without building their sub-Gram.
// Training is sequential — the ensemble's signature list is
// order-dependent — and one sub-Gram scratch buffer is reused across
// all buckets. No training points is ErrEmptyGram, as for TrainSVM.
func TrainBucketedSVM(points *matrix.Dense, y []int, family lsh.Family, kf kernel.Kernel, cfg SVMConfig) (*BucketedSVM, error) {
	n := points.Rows()
	if n == 0 {
		return nil, ErrEmptyGram
	}
	if len(y) != n {
		return nil, fmt.Errorf("kernelml: %d labels for %d points", len(y), n)
	}
	part := lsh.PartitionWith(family, points, 1)
	ens := &BucketedSVM{
		family: family,
		points: points,
		kf:     kf,
		models: make(map[uint64]*bucketModel, len(part.Buckets)),
	}
	var scratch []float64
	for _, b := range part.Buckets {
		ens.signatures = append(ens.signatures, b.Signature)
		subY := make([]int, len(b.Indices))
		for i, idx := range b.Indices {
			subY[i] = y[idx]
		}
		if m := constantModel(subY); m != nil {
			ens.models[b.Signature] = &bucketModel{svm: m, indices: b.Indices}
			continue
		}
		sub, err := kernel.SubGramPooled(points, b.Indices, kf, &scratch, true)
		if err != nil {
			return nil, err
		}
		svm, err := TrainSVM(sub, subY, cfg)
		if err != nil {
			return nil, fmt.Errorf("kernelml: bucket %x: %w", b.Signature, err)
		}
		ens.models[b.Signature] = &bucketModel{svm: svm, indices: b.Indices}
	}
	return ens, nil
}

// Predict routes x to its bucket's SVM (nearest training signature by
// Hamming distance when the exact signature was never seen).
func (e *BucketedSVM) Predict(x []float64) int {
	sig := e.family.Signature(x)
	m, ok := e.models[sig]
	if !ok {
		best, bestD := e.signatures[0], 65
		for _, s := range e.signatures {
			if d := lsh.HammingDistance(sig, s); d < bestD {
				best, bestD = s, d
			}
		}
		m = e.models[best]
	}
	// Decision over the bucket's own training subset, summed in
	// ascending support index order — float addition in map-iteration
	// order would flip near-boundary predictions between runs.
	s := m.svm.B
	for _, i := range m.svm.supportIndices() {
		s += m.svm.Alpha[i] * float64(m.svm.Labels[i]) * e.kf.Eval(e.points.Row(m.indices[i]), x)
	}
	if s >= 0 {
		return 1
	}
	return -1
}

// Buckets returns the number of per-bucket models.
func (e *BucketedSVM) Buckets() int { return len(e.models) }
