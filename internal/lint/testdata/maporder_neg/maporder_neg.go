// Negative fixtures for the maporder analyzer: every map range below
// is order-independent (or made deterministic by a later sort) and
// must not be flagged.
package maporder_neg

import "sort"

// The canonical fix: collect, then sort before anything order-sensitive.
func collectAndSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortSliceVariant(m map[uint64]int) []uint64 {
	var sigs []uint64
	for s := range m {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	return sigs
}

// Integer accumulation is exact and commutative: order cannot matter.
func intCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Scatter by key: map keys are unique, so each slot is written at most
// once regardless of order.
func scatterByKey(m map[int]float64, out []float64) {
	for k, v := range m {
		out[k] = v * 2
	}
}

// Writing into another map is keyed, not positional.
func invert(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// A fixed-slot float accumulation through a map value is still flagged
// only for slice positions; map-to-map accumulation stays keyed.
func mergeCounts(dst, src map[string]int) {
	for k, v := range src {
		dst[k] += v
	}
}

// The range and its sort both live in one returned closure.
func sortedInClosure(m map[string]int) func() []string {
	return func() []string {
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
}
