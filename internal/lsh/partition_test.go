package lsh

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestPartitionSignaturesGroupsExactMatches(t *testing.T) {
	sigs := []uint64{5, 5, 9, 5, 9}
	p := PartitionSignatures(sigs, -1) // merging off
	if p.NumBuckets() != 2 {
		t.Fatalf("buckets = %d, want 2", p.NumBuckets())
	}
	var five, nine *Bucket
	for i := range p.Buckets {
		switch p.Buckets[i].Signature {
		case 5:
			five = &p.Buckets[i]
		case 9:
			nine = &p.Buckets[i]
		}
	}
	if five == nil || nine == nil {
		t.Fatalf("missing buckets: %+v", p.Buckets)
	}
	if len(five.Indices) != 3 || len(nine.Indices) != 2 {
		t.Fatalf("bucket sizes: %v %v", five.Indices, nine.Indices)
	}
}

func TestPartitionMergesNearDuplicates(t *testing.T) {
	// 0b100 and 0b101 differ in one bit: merged. 0b010 is 2 bits from
	// both: separate.
	sigs := []uint64{0b100, 0b101, 0b010, 0b100}
	p := PartitionSignatures(sigs, 1)
	if p.NumBuckets() != 2 {
		t.Fatalf("buckets = %d, want 2: %+v", p.NumBuckets(), p.Buckets)
	}
	// Merged bucket keeps the signature of its largest constituent
	// (0b100 appears twice).
	var mergedFound bool
	for _, b := range p.Buckets {
		if len(b.Indices) == 3 {
			mergedFound = true
			if b.Signature != 0b100 {
				t.Fatalf("merged signature = %b, want 100", b.Signature)
			}
		}
	}
	if !mergedFound {
		t.Fatalf("no merged bucket of size 3: %+v", p.Buckets)
	}
}

func TestPartitionMergeDoesNotChain(t *testing.T) {
	// 000 ~ 001 ~ 011: absorbed buckets must not keep absorbing, so the
	// chain stops — 000 takes 001 (distance 1) but 011 (distance 2 from
	// the keeper) stays separate. Transitive closure here would collapse
	// the whole signature space whenever most patterns are occupied.
	sigs := []uint64{0b000, 0b001, 0b011}
	p := PartitionSignatures(sigs, 1)
	if p.NumBuckets() != 2 {
		t.Fatalf("buckets = %d, want 2 (no chained merging): %+v", p.NumBuckets(), p.Buckets)
	}
	sizes := p.Sizes()
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestPartitionFullHypercubeSurvivesMerging(t *testing.T) {
	// All 16 4-bit patterns occupied: transitive merging would collapse
	// everything into one bucket; keeper-based merging must retain
	// several buckets (every keeper absorbs at most its Hamming-1
	// neighbours).
	var sigs []uint64
	for s := uint64(0); s < 16; s++ {
		sigs = append(sigs, s, s) // two points per pattern
	}
	p := PartitionSignatures(sigs, 1)
	if p.NumBuckets() < 3 {
		t.Fatalf("buckets = %d, want >= 3", p.NumBuckets())
	}
	if slices.Max(append(p.Sizes(), 0)) > 16 {
		t.Fatalf("largest bucket %d too large", slices.Max(append(p.Sizes(), 0)))
	}
}

func TestPartitionLargerHammingRadius(t *testing.T) {
	sigs := []uint64{0b0000, 0b0011}
	if p := PartitionSignatures(sigs, 1); p.NumBuckets() != 2 {
		// distance 2 — not merged at radius 1
		t.Fatalf("radius 1: buckets = %d, want 2", p.NumBuckets())
	}
	if p := PartitionSignatures(sigs, 2); p.NumBuckets() != 1 {
		t.Fatalf("radius 2: buckets = %d, want 1", p.NumBuckets())
	}
}

func TestPartitionViaHasher(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := twoBlobs(rng, 30, 5)
	h, err := Fit(pts, Config{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionWith(h, pts, 1)
	if p.NumBuckets() < 1 || p.NumBuckets() > 2 {
		t.Fatalf("blob partition has %d buckets", p.NumBuckets())
	}
	if len(p.Signatures) != 60 {
		t.Fatalf("signatures = %d, want 60", len(p.Signatures))
	}
	total := 0
	for _, b := range p.Buckets {
		total += len(b.Indices)
	}
	if total != 60 {
		t.Fatalf("partition covers %d points, want 60", total)
	}
}

func TestPartitionStatistics(t *testing.T) {
	p := PartitionSignatures([]uint64{1, 1, 1, 4, 4, 7}, -1)
	sizes := p.Sizes()
	if len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	if slices.Max(append(p.Sizes(), 0)) != 3 {
		t.Fatalf("LargestBucket = %d", slices.Max(append(p.Sizes(), 0)))
	}
	// 3^2 + 2^2 + 1^2 = 14
	if p.ApproxGramEntries() != 14 {
		t.Fatalf("ApproxGramEntries = %d, want 14", p.ApproxGramEntries())
	}
}

func TestPartitionEmpty(t *testing.T) {
	p := PartitionSignatures(nil, 1)
	if p.NumBuckets() != 0 || slices.Max(append(p.Sizes(), 0)) != 0 || p.ApproxGramEntries() != 0 {
		t.Fatalf("empty partition: %+v", p)
	}
}

// Property: the buckets are a disjoint cover of all point indices, and
// approximated Gram entries never exceed the full N^2.
func TestPropPartitionIsDisjointCover(t *testing.T) {
	f := func(seed int64, merge bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		sigs := make([]uint64, n)
		for i := range sigs {
			sigs[i] = uint64(rng.Intn(16)) // dense signature space forces merges
		}
		radius := -1
		if merge {
			radius = 1
		}
		p := PartitionSignatures(sigs, radius)
		seen := make([]bool, n)
		for _, b := range p.Buckets {
			for _, idx := range b.Indices {
				if idx < 0 || idx >= n || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return p.ApproxGramEntries() <= int64(n)*int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with merging at radius 1, any two points whose signatures
// are identical always land in the same bucket.
func TestPropIdenticalSignaturesShareBucket(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		sigs := make([]uint64, n)
		for i := range sigs {
			sigs[i] = uint64(rng.Intn(8))
		}
		p := PartitionSignatures(sigs, 1)
		bucketOf := make(map[int]int)
		for bi, b := range p.Buckets {
			for _, idx := range b.Indices {
				bucketOf[idx] = bi
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if sigs[i] == sigs[j] && bucketOf[i] != bucketOf[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// referencePartition is PartitionSignatures as it was before it counted
// first: every bucket's list built by append growth per signature, then
// concatenated per keeper and sorted. The oracle of
// TestPartitionSignaturesMatchesReference.
func referencePartition(sigs []uint64, maxHamming int) *Partition {
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

// TestPartitionSignaturesMatchesReference holds PartitionSignatures to
// the reference on signatures drawn from few and from many distinct
// values, at every merge radius the drivers use: same buckets, same
// signatures, same index lists, in the same order.
func TestPartitionSignaturesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 500, 5000} {
		for _, bits := range []int{2, 5, 12} {
			sigs := make([]uint64, n)
			for i := range sigs {
				sigs[i] = uint64(rng.Intn(1 << bits))
			}
			for _, h := range []int{-1, 0, 1, 2, 3} {
				got, want := PartitionSignatures(sigs, h), referencePartition(sigs, h)
				if !reflect.DeepEqual(got.Buckets, want.Buckets) {
					t.Fatalf("n=%d bits=%d maxHamming=%d: buckets differ from the reference", n, bits, h)
				}
			}
		}
	}
}
