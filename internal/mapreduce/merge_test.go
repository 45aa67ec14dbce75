package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refStableSort is the reference ordering: the pre-PR reflection-based
// stable sort the specialized implementations must reproduce exactly.
func refStableSort(pairs []Pair) {
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].Key < pairs[b].Key })
}

// randomPairs builds n pairs with keys drawn from a small alphabet (so
// duplicates are common and stability is actually exercised). Values
// record the emission index, making order violations visible.
func randomPairs(rng *rand.Rand, n, keySpace int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{
			Key:   fmt.Sprintf("k%03d", rng.Intn(keySpace)),
			Value: []byte(fmt.Sprintf("v%d", i)),
		}
	}
	return out
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

// TestSortPairsMatchesSliceStable checks the specialized merge sort
// against sort.SliceStable on randomized workloads, including the
// sorted and reversed edge shapes.
func TestSortPairsMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		keySpace := 1 + rng.Intn(20)
		a := randomPairs(rng, n, keySpace)
		switch trial % 5 {
		case 3: // already sorted: must hit the O(n) fast path unchanged
			refStableSort(a)
		case 4: // reversed runs
			sort.Slice(a, func(x, y int) bool { return a[x].Key > a[y].Key })
		}
		want := append([]Pair(nil), a...)
		refStableSort(want)
		sortPairs(a)
		if !pairsEqual(a, want) {
			t.Fatalf("trial %d: sortPairs diverged from sort.SliceStable\n got %v\nwant %v", trial, a, want)
		}
	}
}

// TestMergeRunsEqualsConcatStableSort is the shuffle's determinism
// contract: merging stably-sorted runs with run-order tie-breaking is
// bit-identical to concatenating the runs in order and stable-sorting.
func TestMergeRunsEqualsConcatStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nRuns := rng.Intn(9) // includes 0, 1, 2, and the heap path
		runs := make([][]Pair, nRuns)
		var concat []Pair
		for r := range runs {
			runs[r] = randomPairs(rng, rng.Intn(50), 1+rng.Intn(8))
			sortPairs(runs[r]) // map-side sort, stable
			concat = append(concat, runs[r]...)
		}
		want := append([]Pair(nil), concat...)
		refStableSort(want)
		got := MergeRuns(runs)
		if !pairsEqual(got, want) {
			t.Fatalf("trial %d (%d runs): merge diverged from concat+stable-sort", trial, nRuns)
		}
	}
}

// TestMergeRunsEdgeCases pins the degenerate shapes.
func TestMergeRunsEdgeCases(t *testing.T) {
	if out := MergeRuns(nil); out != nil {
		t.Fatalf("MergeRuns(nil) = %v", out)
	}
	if out := MergeRuns([][]Pair{nil, {}, nil}); out != nil {
		t.Fatalf("MergeRuns(empties) = %v", out)
	}
	single := []Pair{{Key: "a"}, {Key: "b"}}
	out := MergeRuns([][]Pair{nil, single, nil})
	if !pairsEqual(out, single) {
		t.Fatalf("single-run merge = %v", out)
	}
	// The returned slice must be a copy, not the run itself: the
	// executors hand merged partitions to user reduce code.
	out[0].Key = "mutated"
	if single[0].Key != "a" {
		t.Fatal("MergeRuns aliased its input run")
	}
}

// TestPropMergeRunsTieBreak drives the tie-break property with quick:
// all-equal keys must come out in (run, position) order.
func TestPropMergeRunsTieBreak(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 8 {
			sizes = sizes[:8]
		}
		runs := make([][]Pair, len(sizes))
		var want []Pair
		for r, sz := range sizes {
			n := int(sz % 17)
			runs[r] = make([]Pair, n)
			for i := 0; i < n; i++ {
				p := Pair{Key: "same", Value: []byte(fmt.Sprintf("%d/%d", r, i))}
				runs[r][i] = p
				want = append(want, p)
			}
		}
		return pairsEqual(MergeRuns(runs), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMergeShuffle measures the per-partition k-way merge of
// map-side sorted runs — the new shuffle path.
func BenchmarkMergeShuffle(b *testing.B) {
	runs := benchRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeRuns(runs)
	}
}

// BenchmarkConcatSortShuffle measures the pre-PR shuffle — concatenate
// every run, then reflection-based stable sort — on the same runs.
func BenchmarkConcatSortShuffle(b *testing.B) {
	runs := benchRuns()
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		concat := make([]Pair, 0, total)
		for _, r := range runs {
			concat = append(concat, r...)
		}
		refStableSort(concat)
	}
}

// benchRuns is the shared shuffle-benchmark workload: 32 map tasks'
// worth of sorted runs, 1024 small pairs each.
func benchRuns() [][]Pair {
	rng := rand.New(rand.NewSource(3))
	runs := make([][]Pair, 32)
	for r := range runs {
		runs[r] = randomPairs(rng, 1024, 997)
		sortPairs(runs[r])
	}
	return runs
}

// BenchmarkMergeShapes times MergeRuns on the three shapes a change to
// the heap has to hold: few long runs (a stage-1 partition), exactly two
// (the smallest heap), and many short ones (one run per map task). Keys
// are shaped like stage-1's — 19 bytes over 64 distinct values, so equal
// keys across runs are the rule and every tie-break is exercised — with
// 4-byte values.
func BenchmarkMergeShapes(b *testing.B) {
	for _, shape := range []struct{ runs, perRun int }{{4, 32768}, {2, 65536}, {128, 1024}} {
		rng := rand.New(rand.NewSource(5))
		runs := make([][]Pair, shape.runs)
		for r := range runs {
			runs[r] = make([]Pair, shape.perRun)
			for i := range runs[r] {
				runs[r][i] = Pair{Key: fmt.Sprintf("00:%016x", rng.Intn(64)), Value: []byte{byte(i), byte(i >> 8), byte(r), 0}}
			}
			sortPairs(runs[r])
		}
		b.Run(fmt.Sprintf("%dx%d", shape.runs, shape.perRun), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := len(MergeRuns(runs)); got != shape.runs*shape.perRun {
					b.Fatalf("merged %d pairs", got)
				}
			}
		})
	}
}
