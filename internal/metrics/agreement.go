package metrics

import (
	"math"

	"repro/internal/matrix"
)

// This file adds the standard external clustering-agreement measures
// beyond the paper's accuracy metric: purity, normalized mutual
// information, and the adjusted Rand index. They are used by the
// extended evaluation harness to cross-check that accuracy shapes
// (Figure 3) are not artifacts of the Hungarian matching.

// contingency builds the cluster-by-class count table plus marginals.
func contingency(truth, pred []int) (table [][]float64, rowSum, colSum []float64, n float64, err error) {
	if len(truth) != len(pred) {
		return nil, nil, nil, 0, ErrLabelMismatch
	}
	if len(truth) == 0 {
		return nil, nil, nil, 0, errEmpty
	}
	tIdx := indexLabels(truth)
	pIdx := indexLabels(pred)
	table = make([][]float64, len(pIdx))
	for i := range table {
		table[i] = make([]float64, len(tIdx))
	}
	for i := range truth {
		table[pIdx[pred[i]]][tIdx[truth[i]]]++
	}
	rowSum = make([]float64, len(pIdx))
	colSum = make([]float64, len(tIdx))
	for r, row := range table {
		for c, v := range row {
			rowSum[r] += v
			colSum[c] += v
		}
	}
	return table, rowSum, colSum, float64(len(truth)), nil
}

// Purity is the fraction of points that belong to the majority class of
// their cluster. Unlike Accuracy it allows many clusters to map to one
// class, so it never decreases when clusters split.
func Purity(truth, pred []int) (float64, error) {
	table, _, _, n, err := contingency(truth, pred)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, row := range table {
		best := 0.0
		for _, v := range row {
			if v > best {
				best = v
			}
		}
		total += best
	}
	return total / n, nil
}

// NMI returns the normalized mutual information between the two
// labelings, I(T;P)/sqrt(H(T) H(P)), in [0, 1]. Degenerate labelings
// with zero entropy on either side yield 1 when identical in structure
// (both single-cluster) and 0 otherwise.
func NMI(truth, pred []int) (float64, error) {
	table, rowSum, colSum, n, err := contingency(truth, pred)
	if err != nil {
		return 0, err
	}
	var mi, ht, hp float64
	for r, row := range table {
		for c, v := range row {
			if matrix.IsZero(v) {
				continue
			}
			mi += v / n * math.Log(v*n/(rowSum[r]*colSum[c]))
		}
	}
	for _, v := range rowSum {
		if v > 0 {
			hp -= v / n * math.Log(v/n)
		}
	}
	for _, v := range colSum {
		if v > 0 {
			ht -= v / n * math.Log(v/n)
		}
	}
	if matrix.IsZero(ht) && matrix.IsZero(hp) {
		return 1, nil // both labelings are a single cluster
	}
	if matrix.IsZero(ht) || matrix.IsZero(hp) {
		return 0, nil
	}
	return mi / math.Sqrt(ht*hp), nil
}

// pairCounts sums C(x,2) over the contingency table's cells, its
// cluster and class marginals, and N: the point pairs that share both a
// cluster and a class, a cluster, a class, and all pairs. Every term is
// an integer below 2^53 for any N that fits in memory, so the sums are
// exact.
func pairCounts(truth, pred []int) (cells, clusters, classes, all float64, err error) {
	table, rowSum, colSum, n, err := contingency(truth, pred)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	for r, row := range table {
		clusters += choose2(rowSum[r])
		for _, v := range row {
			cells += choose2(v)
		}
	}
	for _, v := range colSum {
		classes += choose2(v)
	}
	return cells, clusters, classes, choose2(n), nil
}

// AdjustedRand returns the adjusted Rand index between the labelings:
// 1 for identical partitions, ~0 for independent ones, negative for
// worse-than-chance agreement.
func AdjustedRand(truth, pred []int) (float64, error) {
	sumCells, sumRows, sumCols, total, err := pairCounts(truth, pred)
	if err != nil {
		return 0, err
	}
	if matrix.IsZero(total) {
		return 1, nil // a single point: partitions trivially agree
	}
	expected := sumRows * sumCols / total
	maxIdx := (sumRows + sumCols) / 2
	if matrix.ApproxEqual(maxIdx, expected, 0) {
		return 1, nil // both partitions degenerate identically
	}
	return (sumCells - expected) / (maxIdx - expected), nil
}

// PairRecall is the share of same-class point pairs that the clustering
// keeps in one cluster: Σ C(n_ij,2) over the contingency table divided
// by Σ C(a_i,2) over the class sizes, or 0 when no two points share a
// class.
func PairRecall(truth, pred []int) (float64, error) {
	kept, _, same, _, err := pairCounts(truth, pred)
	if err != nil || matrix.IsZero(same) {
		return 0, err
	}
	return kept / same, nil
}

var errEmpty = errEmptyType{}

type errEmptyType struct{}

func (errEmptyType) Error() string { return "metrics: empty labeling" }
