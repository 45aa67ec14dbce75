package mapreduce

import "strings"

// The merge-based shuffle. Map tasks hand every reduce partition back
// as a key-sorted run (sorted where the records are produced, so the
// work parallelizes across map tasks and TCP workers), and the shuffle
// k-way merges those runs per partition instead of concatenating
// everything and re-sorting: one run type (run), one heap (runHeap) and
// one merge (mergeRuns) serve resident runs, spilled ones (spill.go) and
// the final assembly alike. Ties between runs break on run order —
// map-task Seq, then emission index inside the run — which reproduces
// the order of the old concat + stable-sort shuffle bit for bit: a
// stable sort of a concatenation equals a tie-broken merge of the
// stably-sorted parts. The same argument covers reduce-output
// assembly, where the runs are per-partition reduce outputs and run
// order is the partition index. See DESIGN.md "Merge shuffle".

// pairsSorted reports whether pairs is already key-sorted, the common
// case for combiner output and merged partitions.
func pairsSorted(pairs []Pair) bool {
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key < pairs[i-1].Key {
			return false
		}
	}
	return true
}

// sortPairs orders pairs by key, keeping emission order within a key
// (stable), which makes executor output deterministic. It is a
// hand-rolled merge sort specialized to []Pair: no reflection, no
// interface calls, and an O(n) fast path for already-sorted input.
func sortPairs(pairs []Pair) {
	if pairsSorted(pairs) {
		return
	}
	aux := make([]Pair, len(pairs)/2+1)
	mergeSortPairs(pairs, aux)
}

// insertionRun is the cutoff below which insertion sort (also stable)
// beats splitting further.
const insertionRun = 24

// mergeSortPairs recursively sorts a in place using aux (at least
// len(a)/2+1 long) as the merge scratch.
func mergeSortPairs(a, aux []Pair) {
	n := len(a)
	if n <= insertionRun {
		insertionSortPairs(a)
		return
	}
	mid := n / 2
	mergeSortPairs(a[:mid], aux)
	mergeSortPairs(a[mid:], aux)
	if a[mid-1].Key <= a[mid].Key {
		return // halves already in order
	}
	// Merge: copy the left half out, then weave it with the right half
	// back into a. The write index never catches the right-half read
	// index, so the in-place weave is safe; ties take the left element
	// first, which keeps the sort stable.
	left := aux[:mid]
	copy(left, a[:mid])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if a[j].Key < left[i].Key {
			a[k] = a[j]
			j++
		} else {
			a[k] = left[i]
			i++
		}
		k++
	}
	copy(a[k:], left[i:]) // any left remainder; right remainder is already in place
}

// insertionSortPairs is the stable small-slice base case.
func insertionSortPairs(a []Pair) {
	for i := 1; i < len(a); i++ {
		p := a[i]
		j := i - 1
		for j >= 0 && a[j].Key > p.Key {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = p
	}
}

// run is one key-sorted run as the merge reads it — the shuffle's only
// run representation. buf[pos:] is what is resident and unconsumed. A
// resident run is its whole slice and has no fill; a spilled segment is
// a window over its file, and fill reads the next one (it may reuse
// buf's array: the merge has handed on everything before pos and emit
// keeps no slice), returning an empty window at the end of the run.
type run struct {
	buf  []Pair
	pos  int
	fill func() ([]Pair, error)
}

// head makes buf[pos] the run's next pair, reading a drained run's next
// window, and reports whether the run has one.
func (r *run) head() (bool, error) {
	if r.pos < len(r.buf) || r.fill == nil {
		return r.pos < len(r.buf), nil
	}
	buf, err := r.fill()
	r.buf, r.pos = buf, 0
	return len(buf) > 0, err
}

// runHeap is a hand-rolled binary min-heap over run heads, ordered by
// (head key, run index) so equal keys pop in run order.
type runHeap struct {
	runs []run
	heap []int // indices of the runs that have a head, heap-ordered
}

// less orders run a's head before run b's head.
func (h *runHeap) less(a, b int) bool {
	ra, rb := &h.runs[a], &h.runs[b]
	c := strings.Compare(ra.buf[ra.pos].Key, rb.buf[rb.pos].Key)
	return c < 0 || (c == 0 && a < b)
}

func (h *runHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h.heap) {
			return
		}
		small := l
		if r := l + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			small = r
		}
		if !h.less(h.heap[small], h.heap[i]) {
			return
		}
		h.heap[i], h.heap[small] = h.heap[small], h.heap[i]
		i = small
	}
}

// mergeRuns streams the k-way merge of key-sorted runs into emit — the
// shuffle's only merge, over resident and spilled runs alike, holding no
// more of a spilled run than its window. Ties between runs break on the
// run's index in the slice, then position within the run, so the result
// is exactly a stable sort of the concatenation of the runs in order —
// the shuffle's determinism contract. Runs that are not individually
// sorted give an unspecified order; the executors sort every run at the
// map side. emit receives the merged pairs a stretch at a time — a slice
// of one run's buffer, which it must not keep or change — and mergeRuns
// stops at the first fill or emit error.
func mergeRuns(runs []run, emit func([]Pair) error) error {
	h := &runHeap{runs: runs, heap: make([]int, 0, len(runs))}
	for i := range runs {
		ok, err := runs[i].head()
		if err != nil {
			return err
		}
		if ok {
			h.heap = append(h.heap, i)
		}
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	for len(h.heap) > 0 {
		top := h.heap[0]
		r := &runs[top]
		// The run on top stays there for as long as its head sorts before
		// the runner-up's — the smaller child of the root, which does not
		// move while the root does not — so a stretch of one run costs one
		// key comparison a pair and one sift, and the last run's rest none.
		end, child := len(r.buf), 0
		if len(h.heap) > 1 {
			child = 1
			if len(h.heap) > 2 && h.less(h.heap[2], h.heap[1]) {
				child = 2
			}
			next := h.heap[child]
			bound := runs[next].buf[runs[next].pos].Key
			end = r.pos + 1
			if top < next { // top wins ties
				for end < len(r.buf) && r.buf[end].Key <= bound {
					end++
				}
			} else {
				for end < len(r.buf) && r.buf[end].Key < bound {
					end++
				}
			}
		}
		if err := emit(r.buf[r.pos:end]); err != nil {
			return err
		}
		r.pos = end
		if end < len(r.buf) {
			// The scan stopped at a head that sorts after the runner-up's:
			// the two change places, and the sift goes on from there.
			h.heap[0], h.heap[child] = h.heap[child], top
			h.siftDown(child)
			continue
		}
		ok, err := r.head()
		if err != nil {
			return err
		}
		if !ok {
			last := len(h.heap) - 1
			h.heap[0] = h.heap[last]
			h.heap = h.heap[:last]
		}
		h.siftDown(0)
	}
	return nil
}

// MergeRuns merges resident key-sorted runs into one key-sorted slice,
// in mergeRuns' order; the result never aliases a run.
func MergeRuns(runs [][]Pair) []Pair {
	total := 0
	rs := make([]run, len(runs))
	for i, r := range runs {
		total += len(r)
		rs[i].buf = r
	}
	if total == 0 {
		return nil
	}
	out := make([]Pair, 0, total)
	// Resident runs have no fill and this emit returns no error.
	_ = mergeRuns(rs, func(stretch []Pair) error {
		out = append(out, stretch...)
		return nil
	})
	return out
}
