// Package text implements the document-cleaning pipeline the paper
// built on Apache Lucene (§5.2): HTML tag stripping, tokenization with
// lower-casing and punctuation removal, stop-word filtering, the Porter
// stemming algorithm, and tf-idf term ranking with top-F vectorization.
package text

// PorterStem reduces an English word to its stem with the classic
// Porter (1980) algorithm, the same stemmer the paper uses via Lucene.
// Input is assumed to be lower-case ASCII; other runes pass through the
// consonant test as consonants. Words of length <= 2 are returned
// unchanged, per the original definition.
func PorterStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	return string(stemBytes([]byte(word)))
}

// stemBytes is PorterStem on a mutable buffer: it stems w in place and
// returns the stem as a prefix of w's storage. No rule lengthens a word
// (suffixes are replaced by shorter-or-equal ones, and the step-1b 'e'
// restoration follows the removal of at least two bytes), so nothing is
// allocated.
func stemBytes(w []byte) []byte {
	if len(w) <= 2 {
		return w
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	return step5b(w)
}

// isConsonant reports whether w[i] is a consonant in Porter's sense:
// letters other than a, e, i, o, u; 'y' is a consonant when it follows
// a vowel position (i.e. preceded by a consonant it is a vowel).
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	default:
		return true
	}
}

// measure computes m, the number of VC (vowel-consonant) sequences in
// w[:limit], written [C](VC)^m[V] in Porter's notation.
func measure(w []byte, limit int) int {
	m := 0
	i := 0
	// Skip initial consonant run.
	for i < limit && isConsonant(w, i) {
		i++
	}
	for {
		// Vowel run.
		if i >= limit {
			return m
		}
		for i < limit && !isConsonant(w, i) {
			i++
		}
		if i >= limit {
			return m
		}
		// Consonant run closes one VC block.
		for i < limit && isConsonant(w, i) {
			i++
		}
		m++
	}
}

// hasVowel reports whether w[:limit] contains a vowel.
func hasVowel(w []byte, limit int) bool {
	for i := 0; i < limit; i++ {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether w ends with the same consonant twice.
func endsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isConsonant(w, n-1)
}

// endsCVC reports whether w[:limit] ends consonant-vowel-consonant with
// the final consonant not w, x or y — Porter's *o condition.
func endsCVC(w []byte, limit int) bool {
	if limit < 3 {
		return false
	}
	if !isConsonant(w, limit-3) || isConsonant(w, limit-2) || !isConsonant(w, limit-1) {
		return false
	}
	switch w[limit-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix reports whether w ends with s.
func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix old with new when the measure of the
// stem (w without old) is greater than minM. Returns the possibly new
// slice and whether the rule fired.
func replaceSuffix(w []byte, old, new string, minM int) ([]byte, bool) {
	if !hasSuffix(w, old) {
		return w, false
	}
	stem := len(w) - len(old)
	if measure(w, stem) <= minM {
		return w, true // suffix matched; rule consumed but no change
	}
	return append(w[:stem], new...), true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2] // sses -> ss
	case hasSuffix(w, "ies"):
		return w[:len(w)-2] // ies -> i
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w, len(w)-3) > 0 {
			return w[:len(w)-1] // eed -> ee
		}
		return w
	}
	fired := false
	if hasSuffix(w, "ed") && hasVowel(w, len(w)-2) {
		w = w[:len(w)-2]
		fired = true
	} else if hasSuffix(w, "ing") && hasVowel(w, len(w)-3) {
		w = w[:len(w)-3]
		fired = true
	}
	if !fired {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleConsonant(w):
		switch w[len(w)-1] {
		case 'l', 's', 'z':
			return w
		}
		return w[:len(w)-1]
	case measure(w, len(w)) == 1 && endsCVC(w, len(w)):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w, len(w)-1) {
		w[len(w)-1] = 'i'
	}
	return w
}

var step2Rules = []struct{ old, new string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, r := range step2Rules {
		if out, ok := replaceSuffix(w, r.old, r.new, 0); ok {
			return out
		}
	}
	return w
}

var step3Rules = []struct{ old, new string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, r := range step3Rules {
		if out, ok := replaceSuffix(w, r.old, r.new, 0); ok {
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := len(w) - len(s)
		if s == "ion" && stem > 0 && w[stem-1] != 's' && w[stem-1] != 't' {
			// "ion" only strips after s or t.
			return w
		}
		if measure(w, stem) > 1 {
			return w[:stem]
		}
		return w
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := len(w) - 1
	m := measure(w, stem)
	if m > 1 || (m == 1 && !endsCVC(w, stem)) {
		return w[:stem]
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w, len(w)) > 1 && endsDoubleConsonant(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}
