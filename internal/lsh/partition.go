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
	// Count first: each distinct signature's slot and size, and every
	// point's slot, so each bucket's index list is made once at its size.
	slotOf := make(map[uint64]int32)
	var unique []uint64
	var sizes []int
	slot := make([]int32, len(sigs))
	for i, s := range sigs {
		u, ok := slotOf[s]
		if !ok {
			u = int32(len(unique))
			slotOf[s] = u
			unique = append(unique, s)
			sizes = append(sizes, 0)
		}
		slot[i] = u
		sizes[u]++
	}
	// Descending bucket size, ascending signature for determinism.
	order := make([]int, len(unique))
	for u := range order {
		order[u] = u
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := order[a], order[b]
		if sizes[ua] != sizes[ub] {
			return sizes[ua] > sizes[ub]
		}
		return unique[ua] < unique[ub]
	})

	root := make([]int32, len(unique)) // slot of the keeper that absorbed it; itself for a keeper
	for u := range root {
		root[u] = int32(u)
	}
	if maxHamming >= 0 {
		for a, ua := range order {
			if root[ua] != int32(ua) {
				continue // absorbed buckets do not absorb others
			}
			for _, ub := range order[a+1:] {
				if root[ub] != int32(ub) {
					continue
				}
				var close bool
				if maxHamming <= 1 {
					close = NearDuplicate(unique[ua], unique[ub])
				} else {
					close = HammingDistance(unique[ua], unique[ub]) <= maxHamming
				}
				if close {
					root[ub] = int32(ua)
				}
			}
		}
	}

	// One bucket per keeper, in signature order, sized by what it
	// absorbed; then the points in ascending order, so every list comes
	// out sorted.
	var keepers []int
	for u := range unique {
		if root[u] == int32(u) {
			keepers = append(keepers, u)
		} else {
			sizes[root[u]] += sizes[u]
		}
	}
	sort.Slice(keepers, func(a, b int) bool { return unique[keepers[a]] < unique[keepers[b]] })
	bucketOf := make([]int32, len(unique))
	buckets := make([]Bucket, len(keepers))
	for bi, u := range keepers {
		bucketOf[u] = int32(bi)
		buckets[bi] = Bucket{Signature: unique[u], Indices: make([]int, 0, sizes[u])}
	}
	for i, u := range slot {
		b := &buckets[bucketOf[root[u]]]
		b.Indices = append(b.Indices, i)
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
		var scratch offheap.Scratch
		defer scratch.Free()
		for oi, ok := next(); ok; oi, ok = next() {
			if err := ctx.Err(); err != nil {
				return err
			}
			bi := order[oi]
			scratch.Reserve(need(bi))
			if err := solve(bi, &scratch.Buf); err != nil {
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
