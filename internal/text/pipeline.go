package text

import (
	"strings"
	"sync"
	"unicode"
)

// StripHTML removes tags and script/style bodies from an HTML fragment,
// returning the raw text with tags replaced by spaces (step (i) of the
// paper's cleaning pipeline). Together with Tokenize it is the
// specification Cleaner's fused scanner is fuzz-checked against; the
// production path never materializes the stripped text.
func StripHTML(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	inTag := false
	skip := "" // element whose closing tag ends the skipped body
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inTag:
			if c == '>' {
				inTag = false
				sb.WriteByte(' ')
			}
		case c == '<':
			skip = skipAfterTag(s[i+1:], skip)
			inTag = true
		case skip == "":
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// skipAfterTag is the script/style state transition at a '<': tag is
// the input following it and skip the element whose body is currently
// being dropped ("" for none). Outside a skipped body an opening
// <script or <style starts one; inside, only that element's closing
// tag ends it. Tag names are matched by ASCII case folding on the
// input itself, as HTML defines them — lower-casing a copy of the
// document first would shift byte offsets wherever a rune's lower-case
// form has a different length (U+0130, U+212A).
func skipAfterTag(tag, skip string) string {
	if skip == "" {
		for _, elem := range [...]string{"script", "style"} {
			if hasPrefixFold(tag, elem) {
				return elem
			}
		}
		return ""
	}
	if len(tag) > 0 && tag[0] == '/' && hasPrefixFold(tag[1:], skip) {
		return ""
	}
	return skip
}

// hasPrefixFold reports whether s starts with the lower-case ASCII
// word prefix, ignoring the case of ASCII letters in s only
// (strings.EqualFold would also accept U+017F for 's').
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if s[i]|0x20 != prefix[i] {
			return false
		}
	}
	return true
}

// Tokenize lower-cases the text and splits it on any non-letter rune,
// covering steps (ii) and (iii): case folding and punctuation removal.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r)
	})
}

// stopWords is a compact English stop-word list concatenated, as the
// paper describes, from the common lists used by search engines.
var stopWords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
a about above after again against all am an and any are aren as at be
because been before being below between both but by can cannot could
couldn did didn do does doesn doing don down during each few for from
further had hadn has hasn have haven having he her here hers herself him
himself his how i if in into is isn it its itself let me more most mustn
my myself no nor not of off on once only or other ought our ours
ourselves out over own same shan she should shouldn so some such than
that the their theirs them themselves then there these they this those
through to too under until up very was wasn we were weren what when
where which while who whom why with won would wouldn you your yours
yourself yourselves`) {
		stopWords[w] = true
	}
}

// IsStopWord reports whether the lower-case token is on the stop list.
func IsStopWord(w string) bool { return stopWords[w] }

var cleaners = sync.Pool{New: func() any { return NewCleaner() }}

// maxPooledForms retires a pooled Cleaner whose memo has outgrown any
// natural-language vocabulary, so input with unbounded distinct tokens
// (identifiers, hashes) cannot pin unbounded memory behind Clean. An
// explicit Cleaner has no such cap; its owner decides its lifetime.
const maxPooledForms = 1 << 18

// Clean runs the full pipeline on raw HTML: strip tags, tokenize,
// drop stop words and single-letter tokens, and stem what remains. It
// borrows a Cleaner from a pool, so a loop of Clean calls shares the
// word-form memo like an explicit Cleaner does: a fresh Cleaner per
// document spends on building its two maps what the fused scan saves.
func Clean(html string) []string {
	c := cleaners.Get().(*Cleaner)
	out := c.Clean(html)
	if len(c.memo) <= maxPooledForms {
		cleaners.Put(c)
	}
	return out
}
