package lsh

import (
	"context"
	"sort"

	"repro/internal/offheap"
	"repro/internal/par"
)

// PointSource provides row access to the dataset being hashed.
// *matrix.Dense satisfies it; adapters can expose any row-major store.
// Ensemble.Partition calls Row from one goroutine and is done with a row
// before it asks for the next, so a source handed only to it may serve
// rows from a buffer it reuses (a row is valid until the next Row call);
// hashing calls Row concurrently and needs a source that allows that.
type PointSource interface {
	Rows() int
	Row(int) []float64
}

// Bucket is one group of points that will share a sub-similarity
// matrix: the indices of the dataset rows it contains and the signature
// that identifies it (after merging, the signature of the largest
// constituent bucket).
type Bucket struct {
	Signature uint64
	Indices   []int
}

// Partition is the result of hashing a dataset: the set of buckets,
// plus the signature of every point for diagnostics.
type Partition struct {
	Buckets    []Bucket
	Signatures []uint64
}

// PartitionSignatures builds the bucket partition from precomputed
// signatures. It is the reducer-side grouping step of the MapReduce
// formulation, split out so the distributed driver can reuse it.
//
// Merging is deliberately NOT transitive. The paper's pairwise merge
// (Eq. 6) repairs near-duplicate signatures; taking its transitive
// closure would collapse the entire signature space whenever most
// M-bit patterns are occupied (every pattern has a Hamming-1 chain to
// every other). Instead, buckets are processed in descending size:
// each still-unabsorbed bucket becomes a keeper and absorbs the
// smaller unabsorbed buckets within maxHamming of the keeper's own
// signature; absorbed buckets never absorb others, so no chains form —
// the keeper/absorbed distinction is the O(T^2) pairwise comparison of
// §3.3 with deterministic tie-breaking.
func PartitionSignatures(sigs []uint64, maxHamming int) *Partition {
	groups := make(map[uint64][]int)
	for i, s := range sigs {
		groups[s] = append(groups[s], i)
	}
	unique := make([]uint64, 0, len(groups))
	for s := range groups {
		unique = append(unique, s)
	}
	// Descending bucket size, ascending signature for determinism.
	sort.Slice(unique, func(a, b int) bool {
		la, lb := len(groups[unique[a]]), len(groups[unique[b]])
		if la != lb {
			return la > lb
		}
		return unique[a] < unique[b]
	})

	absorbedBy := make([]int, len(unique)) // index of keeper, -1 = keeper
	for i := range absorbedBy {
		absorbedBy[i] = -1
	}
	if maxHamming >= 0 {
		for i := 0; i < len(unique); i++ {
			if absorbedBy[i] != -1 {
				continue // absorbed buckets do not absorb others
			}
			for j := i + 1; j < len(unique); j++ {
				if absorbedBy[j] != -1 {
					continue
				}
				var close bool
				if maxHamming <= 1 {
					close = NearDuplicate(unique[i], unique[j])
				} else {
					close = HammingDistance(unique[i], unique[j]) <= maxHamming
				}
				if close {
					absorbedBy[j] = i
				}
			}
		}
	}

	keeperIdxs := make(map[int][]int) // keeper position -> point indices
	var keepers []int
	for pos, s := range unique {
		root := pos
		if absorbedBy[pos] != -1 {
			root = absorbedBy[pos]
		}
		if _, seen := keeperIdxs[root]; !seen && root == pos {
			keepers = append(keepers, pos)
		}
		keeperIdxs[root] = append(keeperIdxs[root], groups[s]...)
	}
	sort.Slice(keepers, func(a, b int) bool { return unique[keepers[a]] < unique[keepers[b]] })

	buckets := make([]Bucket, 0, len(keepers))
	for _, kpos := range keepers {
		idxs := keeperIdxs[kpos]
		sort.Ints(idxs)
		buckets = append(buckets, Bucket{Signature: unique[kpos], Indices: idxs})
	}
	return &Partition{Buckets: buckets, Signatures: sigs}
}

// NumBuckets returns the number of buckets after merging.
func (p *Partition) NumBuckets() int { return len(p.Buckets) }

// Sizes returns the per-bucket point counts.
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.Buckets))
	for i, b := range p.Buckets {
		out[i] = len(b.Indices)
	}
	return out
}

// LPTOrder returns the bucket indices in longest-processing-time-first
// order: descending size, ties in partition order. A bucket's solve cost
// grows like Ni² (sub-Gram) to Ni³ (eigensolve), so a pool that starts
// the giants first has the shortest tail — and first-fit packing over the
// same order is first-fit-decreasing. The order only schedules: solvers
// write each result at its bucket's own index.
func (p *Partition) LPTOrder() []int {
	order := make([]int, len(p.Buckets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(p.Buckets[order[a]].Indices) > len(p.Buckets[order[b]].Indices)
	})
	return order
}

// EachBucket is the one bucket-solve loop: it calls solve(bi, scratch)
// for every bucket index of order — LPTOrder, or a wave cut from it —
// through internal/par, so the bucket at the head runs on the calling
// goroutine, whose inner Gram and k-means loops inherit the helpers the
// small buckets free as they drain.
//
// Each goroutine of the loop owns one scratch buffer. need(bi) is the
// float64s bucket bi's solve builds in (its sub-Gram, cross block or
// embedded rows; 0 for none): before the solve, a buffer smaller than
// that is freed and need(bi) floats are mapped in its place by
// internal/offheap, and the buffer is freed when the loop ends. So the
// scratch lives exactly as long as the loop, outside the Go heap on
// Linux, and in LPT order a goroutine maps once, at the first bucket it
// takes. solve must not keep the buffer, or anything aliasing it, past
// its return. A solve may still grow *scratch on the heap (a need that
// was too small); the mapping is freed regardless. The context is
// checked before every solve, and the error of the bucket earliest in
// order is returned. solve must write its result at the bucket's own
// index: scheduling never changes an output.
func EachBucket(ctx context.Context, order []int, need func(bi int) int, solve func(bi int, scratch *[]float64) error) error {
	return par.Workers(len(order), len(order), func(next func() (int, bool)) error {
		var mapped, scratch []float64
		defer func() { offheap.Free(mapped) }()
		for oi, ok := next(); ok; oi, ok = next() {
			if err := ctx.Err(); err != nil {
				return err
			}
			bi := order[oi]
			if n := need(bi); n > len(mapped) {
				offheap.Free(mapped)
				mapped = offheap.Alloc(n)
				scratch = mapped
			}
			if err := solve(bi, &scratch); err != nil {
				return err
			}
		}
		return nil
	})
}

// ApproxGramEntries returns sum of Ni^2 over buckets — the number of
// similarity entries DASC computes and stores, the quantity behind the
// paper's Eq. 9 space analysis and Figure 6(b).
func (p *Partition) ApproxGramEntries() int64 {
	var total int64
	for _, b := range p.Buckets {
		n := int64(len(b.Indices))
		total += n * n
	}
	return total
}
