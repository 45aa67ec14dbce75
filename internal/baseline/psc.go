package baseline

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/spectral"
)

// PSC runs Parallel Spectral Clustering in the style of Chen et al.
// (§5.4's C++/MPI/PARPACK comparator): build a t-nearest-neighbour
// sparse similarity graph in parallel, symmetrize it, and run sparse
// spectral clustering (implicit normalized Laplacian + Lanczos — the
// ARPACK stand-in — + K-means).
func PSC(points *matrix.Dense, cfg Config) (*Result, error) {
	n := points.Rows()
	if cfg.K <= 0 {
		return nil, errors.New("baseline: PSC needs K > 0")
	}
	if n == 0 {
		return &Result{Labels: []int{}}, nil
	}
	t := cfg.Neighbors
	if t == 0 {
		// The sparse graph must stay connected enough for K eigenvectors
		// to be informative: with many clusters a fixed small t leaves
		// components whose indicator eigenvectors are arbitrary mixtures
		// under Lanczos. Scale the default with the cluster count.
		t = 20
		if 2*cfg.K > t {
			t = 2 * cfg.K
		}
	}
	if t < 1 {
		return nil, fmt.Errorf("baseline: PSC neighbors %d", t)
	}
	if t >= n {
		t = n - 1
	}
	start := time.Now()
	k := cfg.K
	if k > n {
		k = n
	}

	graph, err := buildKNNGraph(points, t, kernel.NewGaussian(cfg.sigma(points)))
	if err != nil {
		return nil, fmt.Errorf("baseline: PSC graph: %w", err)
	}
	if graph.NNZ() == 0 {
		return &Result{Labels: make([]int, n), Elapsed: time.Since(start)}, nil
	}

	res, err := spectral.ClusterSparse(graph, spectral.Config{K: k, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("baseline: PSC: %w", err)
	}
	return &Result{
		Labels:    res.Labels,
		GramBytes: graph.Bytes(),
		NNZ:       int64(graph.NNZ()),
		Fill:      graph.Fill(),
		Elapsed:   time.Since(start),
	}, nil
}

// edge is one directed similarity edge found during the t-NN search.
type edge struct {
	to int
	w  float64
}

// buildKNNGraph computes each point's t nearest neighbours — one point
// per item of a par loop, one heap per goroutine — and returns the
// OR-symmetrized CSR similarity graph.
func buildKNNGraph(points *matrix.Dense, t int, k kernel.Kernel) (*sparse.CSR, error) {
	n := points.Rows()
	nbrs := make([][]edge, n)
	err := par.Workers(n, n, func(next func() (int, bool)) error {
		h := &edgeHeap{}
		for i, ok := next(); ok; i, ok = next() {
			h.edges = h.edges[:0]
			xi := points.Row(i)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				w := k.Eval(xi, points.Row(j))
				if len(h.edges) < t {
					heap.Push(h, edge{j, w})
				} else if w > h.edges[0].w {
					h.edges[0] = edge{j, w}
					heap.Fix(h, 0)
				}
			}
			nbrs[i] = append([]edge(nil), h.edges...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var triplets []sparse.Triplet
	for i, list := range nbrs {
		for _, e := range list {
			triplets = append(triplets, sparse.Triplet{Row: i, Col: e.to, Val: e.w})
		}
	}
	return sparse.Symmetrized(n, triplets)
}

// edgeHeap is a min-heap on similarity, keeping the t best neighbours.
type edgeHeap struct{ edges []edge }

func (h *edgeHeap) Len() int           { return len(h.edges) }
func (h *edgeHeap) Less(i, j int) bool { return h.edges[i].w < h.edges[j].w }
func (h *edgeHeap) Swap(i, j int)      { h.edges[i], h.edges[j] = h.edges[j], h.edges[i] }
func (h *edgeHeap) Push(x interface{}) { h.edges = append(h.edges, x.(edge)) }
func (h *edgeHeap) Pop() interface{} {
	old := h.edges
	n := len(old)
	e := old[n-1]
	h.edges = old[:n-1]
	return e
}
