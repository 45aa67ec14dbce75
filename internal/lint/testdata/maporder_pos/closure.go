package maporder_pos

import "sort"

// The sort must sit in the range's own function: a closure that
// appends in map order is not made deterministic by a sort its
// enclosing function runs after the closure.
func sortOutsideClosure(m map[string]int) []string {
	var keys []string
	collect := func() {
		for k := range m {
			keys = append(keys, k) // want maporder "append inside a map range"
		}
	}
	collect()
	sort.Strings(keys)
	return keys
}
