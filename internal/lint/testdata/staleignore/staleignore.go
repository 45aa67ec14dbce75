// Package staleignore exercises the unused-suppression check: the
// directive below names a real analyzer but suppresses nothing (the
// comparison is integral), so a run of floatcmp must report it; the
// live maporder directive must not be.
package staleignore

//lint:ignore floatcmp this directive is dead: the comparison below is integral
func equalInts(a, b int) bool {
	return a == b
}

func keysOf(m map[string]int) []string {
	var keys []string
	for k := range m {
		//lint:ignore maporder live directive: order is re-established by the caller, which sorts
		keys = append(keys, k)
	}
	return keys
}
