package matrix

import "math"

// selectSampleMin is the range above which SelectKth first selects
// inside a sample (Floyd and Rivest's cutoff of 600).
const selectSampleMin = 600

// SelectKth returns the k-th smallest element of x (0-based): exactly
// the value sorting would place at index k. It is Floyd and Rivest's
// SELECT (CACM Algorithm 489): on a range above selectSampleMin it
// first selects recursively inside a small sample around where k's
// element is expected, so the pivot it then partitions on lands within
// a few positions of k and one partition pass over the range leaves
// little to do — about n + min(k, n−k) comparisons, where median-of-
// three quickselect averages over 2n. The LSH span percentiles and the
// median-bandwidth heuristic need two order statistics per column, not
// a full O(n log n) sort. x is reordered. A NaN compares false with
// everything, so an input holding one gets some element back, not an
// order statistic. It panics if x is empty or k is out of range.
func SelectKth(x []float64, k int) float64 {
	if k < 0 || k >= len(x) {
		Panicf("matrix: SelectKth k=%d with %d elements", k, len(x))
	}
	floydRivest(x, 0, len(x)-1, k)
	return x[k]
}

// floydRivest leaves in x[k] the element sorting would put there among
// x[left..right], with no larger element before it and no smaller one
// after it in that range.
func floydRivest(x []float64, left, right, k int) {
	for right > left {
		if right-left > selectSampleMin {
			// Select k's element inside a sample of s positions whose
			// bounds sit sd standard deviations either side of where it
			// is expected, leaving it at x[k] as this pass's pivot.
			n := right - left + 1
			i := k - left + 1
			z := math.Log(float64(n))
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(float64(n)-s)/float64(n))
			switch {
			case 2*i < n:
				sd = -sd
			case 2*i == n:
				sd = 0
			}
			lo := max(left, int(float64(k)-float64(i)*s/float64(n)+sd))
			hi := min(right, int(float64(k)+float64(n-i)*s/float64(n)+sd))
			floydRivest(x, lo, hi, k)
		}
		// Partition x[left..right] around t = x[k]. The pivot is parked
		// at one end (the left when the right end is larger, so both ends
		// bound the scans) and pivotLeft remembers which, where the
		// published algorithm re-reads the left end and compares it to t.
		t := x[k]
		i, j := left, right
		x[left], x[k] = x[k], x[left]
		pivotLeft := x[right] > t
		if pivotLeft {
			x[right], x[left] = x[left], x[right]
		}
		for i < j {
			x[i], x[j] = x[j], x[i]
			i++
			j--
			for x[i] < t {
				i++
			}
			for x[j] > t {
				j--
			}
		}
		if pivotLeft {
			x[left], x[j] = x[j], x[left]
		} else {
			j++
			x[j], x[right] = x[right], x[j]
		}
		// t is at x[j], nothing larger before it, nothing smaller after.
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}
