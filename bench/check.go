package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/metrics"
)

// checkLabels is the per-op output check: one label per point, ids
// contiguous in [0, clusters) with every id used. It returns the labels
// hash, which must repeat across all ops of a workload.
func checkLabels(labels []int, n, clusters int) (uint64, error) {
	if len(labels) != n {
		return 0, fmt.Errorf("%d labels for %d points", len(labels), n)
	}
	if clusters < 1 || clusters > n {
		return 0, fmt.Errorf("%d clusters for %d points", clusters, n)
	}
	used := make([]bool, clusters)
	h := fnv.New64a()
	var buf [4]byte
	for i, l := range labels {
		if l < 0 || l >= clusters {
			return 0, fmt.Errorf("label %d of point %d outside [0,%d)", l, i, clusters)
		}
		used[l] = true
		binary.LittleEndian.PutUint32(buf[:], uint32(l))
		_, _ = h.Write(buf[:]) // fnv.Write cannot fail
	}
	for id, ok := range used {
		if !ok {
			return 0, fmt.Errorf("cluster id %d unused: ids are not contiguous", id)
		}
	}
	return h.Sum64(), nil
}

// quality holds the clustering-agreement metrics of one labeling.
type quality struct {
	Accuracy, NMI, PairRecall float64
}

func measureQuality(truth, labels []int) (quality, error) {
	acc, err := metrics.Accuracy(truth, labels)
	if err != nil {
		return quality{}, err
	}
	nmi, err := metrics.NMI(truth, labels)
	if err != nil {
		return quality{}, err
	}
	return quality{Accuracy: acc, NMI: nmi, PairRecall: pairRecall(truth, labels)}, nil
}

// pairRecall is the exact share of same-class point pairs that the
// clustering keeps in one cluster: Σ C(n_ij,2) over the contingency
// table divided by Σ C(a_i,2) over the class sizes.
func pairRecall(truth, labels []int) float64 {
	type cell struct{ class, cluster int }
	cells := make(map[cell]int64)
	classes := make(map[int]int64)
	for i, t := range truth {
		cells[cell{t, labels[i]}]++
		classes[t]++
	}
	var kept, same int64 // integer sums: map order cannot change them
	for _, n := range cells {
		kept += n * (n - 1) / 2
	}
	for _, n := range classes {
		same += n * (n - 1) / 2
	}
	if same == 0 {
		return 0
	}
	return float64(kept) / float64(same)
}

// bucketsFromLabels rebuilds the per-bucket index lists of a run from
// its labels alone: cluster ids are assigned in partition order, bucket
// b owning the ks[b] ids after those of the buckets before it.
func bucketsFromLabels(labels []int, ks []int) ([][]int, error) {
	owner := make([]int, 0, len(labels))
	for b, k := range ks {
		for j := 0; j < k; j++ {
			owner = append(owner, b)
		}
	}
	out := make([][]int, len(ks))
	for i, l := range labels {
		if l < 0 || l >= len(owner) {
			return nil, fmt.Errorf("label %d of point %d outside the %d ids the buckets own", l, i, len(owner))
		}
		out[owner[l]] = append(out[owner[l]], i)
	}
	return out, nil
}
