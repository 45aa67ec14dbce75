// Package metrics implements the paper's four evaluation metrics
// (§5.3): clustering accuracy against ground truth (via an optimal
// cluster-to-class assignment computed with the Hungarian algorithm),
// the Davies–Bouldin index (Eq. 20) and average squared error
// (Eq. 21). The fourth, Eq. 22's Frobenius-norm ratio between the
// approximated and full Gram matrices, is computed where the Gram
// entries are: by sampling in core.TuneM and by streaming in
// experiments.Figure5.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// ErrLabelMismatch reports label slices of unequal length.
var ErrLabelMismatch = errors.New("metrics: label slices differ in length")

// Accuracy returns the fraction of points whose predicted cluster maps
// to their true class under the best one-to-one cluster↔class
// assignment (maximum-weight matching on the contingency table). This
// is the "ratio of correctly clustered points" of Figure 3.
func Accuracy(truth, pred []int) (float64, error) {
	if len(truth) != len(pred) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLabelMismatch, len(truth), len(pred))
	}
	if len(truth) == 0 {
		return 0, errors.New("metrics: empty labeling")
	}
	tIdx := indexLabels(truth)
	pIdx := indexLabels(pred)
	// Contingency counts: rows = predicted clusters, cols = true classes.
	rows, cols := len(pIdx), len(tIdx)
	n := rows
	if cols > n {
		n = cols
	}
	counts := make([][]float64, n)
	for i := range counts {
		counts[i] = make([]float64, n)
	}
	for i := range truth {
		counts[pIdx[pred[i]]][tIdx[truth[i]]]++
	}
	matched := hungarianMax(counts)
	return matched / float64(len(truth)), nil
}

// indexLabels maps arbitrary label values to dense indices.
func indexLabels(labels []int) map[int]int {
	idx := make(map[int]int)
	for _, l := range labels {
		if _, ok := idx[l]; !ok {
			idx[l] = len(idx)
		}
	}
	return idx
}

// hungarianMax returns the value of a maximum-weight perfect matching
// on the square weight matrix w, via the O(n^3) potentials formulation
// of the Hungarian algorithm run on costs -w.
func hungarianMax(w [][]float64) float64 {
	n := len(w)
	if n == 0 {
		return 0
	}
	// Standard shortest-augmenting-path Hungarian on cost = -w,
	// 1-indexed internal arrays.
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)   // p[j] = row matched to column j
	way := make([]int, n+1) // back-pointers along the augmenting path
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -w[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	var total float64
	for j := 1; j <= n; j++ {
		if p[j] != 0 {
			total += w[p[j]-1][j-1]
		}
	}
	return total
}

// DaviesBouldin computes the DBI of Eq. 20 for the labeled points:
// the mean over clusters of the worst (sigma_i + sigma_j) / d(c_i, c_j)
// ratio, where sigma is the average distance of cluster members to
// their centroid. Lower is better. Clusters present in labels but
// empty after filtering are skipped; a single cluster yields 0.
func DaviesBouldin(points *matrix.Dense, labels []int) (float64, error) {
	cents, members, err := centroids(points, labels)
	if err != nil {
		return 0, err
	}
	c := len(members)
	if c <= 1 {
		return 0, nil
	}
	sigma := make([]float64, c)
	for k, idxs := range members {
		var s float64
		for _, i := range idxs {
			s += matrix.Dist(points.Row(i), cents.Row(k))
		}
		sigma[k] = s / float64(len(idxs))
	}
	var sum float64
	for i := 0; i < c; i++ {
		worst := 0.0
		for j := 0; j < c; j++ {
			if i == j {
				continue
			}
			d := matrix.Dist(cents.Row(i), cents.Row(j))
			var r float64
			if matrix.IsZero(d) {
				r = math.Inf(1)
			} else {
				r = (sigma[i] + sigma[j]) / d
			}
			if r > worst {
				worst = r
			}
		}
		sum += worst
	}
	return sum / float64(c), nil
}

// AverageSquaredError computes the ASE of Eq. 21: the mean over all
// points of the squared Euclidean distance to the assigned cluster
// centroid. Lower is better.
func AverageSquaredError(points *matrix.Dense, labels []int) (float64, error) {
	cents, members, err := centroids(points, labels)
	if err != nil {
		return 0, err
	}
	var total float64
	for k, idxs := range members {
		for _, i := range idxs {
			total += matrix.SqDist(points.Row(i), cents.Row(k))
		}
	}
	return total / float64(points.Rows()), nil
}

// centroids groups point indices by label and computes per-cluster
// means. Labels may be arbitrary ints; the returned slices are indexed
// by dense cluster id in order of first appearance.
func centroids(points *matrix.Dense, labels []int) (*matrix.Dense, [][]int, error) {
	if points.Rows() != len(labels) {
		return nil, nil, fmt.Errorf("%w: %d points vs %d labels", ErrLabelMismatch, points.Rows(), len(labels))
	}
	if len(labels) == 0 {
		return nil, nil, errors.New("metrics: empty labeling")
	}
	idx := indexLabels(labels)
	members := make([][]int, len(idx))
	for i, l := range labels {
		k := idx[l]
		members[k] = append(members[k], i)
	}
	cents := matrix.NewDense(len(idx), points.Cols())
	for k, idxs := range members {
		row := cents.Row(k)
		for _, i := range idxs {
			for j, v := range points.Row(i) {
				row[j] += v
			}
		}
		matrix.ScaleVec(1/float64(len(idxs)), row)
	}
	return cents, members, nil
}
