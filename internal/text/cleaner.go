package text

import (
	"unicode"
	"unicode/utf8"
)

// Cleaner is the production form of the cleaning pipeline: one pass
// over the document that skips tags and script/style bodies, lower-
// cases letters into a reused buffer and, at each token boundary,
// resolves the raw token to a dense term id through a memo. Stop-word
// lookup and Porter stemming therefore run once per distinct word form
// the Cleaner has seen, not once per occurrence, and a document whose
// word forms are all known is cleaned without allocating.
//
// Term ids are assigned in first-use order and are stable for the
// Cleaner's lifetime; two tokens share an id exactly when they share a
// stem. Memory is O(distinct word forms seen): the memo holds one entry
// per raw form, the id table one entry per stem. A Cleaner is not safe
// for concurrent use.
//
// The output is, token for token, Tokenize(StripHTML(html)) filtered of
// stop words and tokens shorter than two bytes and mapped through
// PorterStem — FuzzCleanerMatchesReference holds it to that.
type Cleaner struct {
	tok   []byte           // current token, lower-cased
	memo  map[string]int32 // raw token → term id; -1 for stop words
	ids   map[string]int32 // stem → term id
	stems []string         // term id → stem
	scan  []int32          // Clean's id scratch
}

// NewCleaner returns a Cleaner with an empty memo.
func NewCleaner() *Cleaner {
	return &Cleaner{memo: map[string]int32{}, ids: map[string]int32{}}
}

// Terms returns the number of term ids assigned so far; valid ids are
// [0, Terms()).
func (c *Cleaner) Terms() int { return len(c.stems) }

// Stem returns the stem a term id stands for.
func (c *Cleaner) Stem(id int32) string { return c.stems[id] }

// Clean returns the document's cleaned, stemmed tokens in order. The
// slice is freshly allocated; the strings are shared with the Cleaner's
// stem table.
func (c *Cleaner) Clean(html string) []string {
	c.scan = c.AppendIDs(c.scan[:0], html)
	out := make([]string, len(c.scan))
	for i, id := range c.scan {
		out[i] = c.stems[id]
	}
	return out
}

// AppendIDs appends the term id of every kept token of the document to
// dst, in document order, and returns the extended slice.
func (c *Cleaner) AppendIDs(dst []int32, html string) []int32 {
	inTag := false
	skip := "" // element whose closing tag ends the skipped body
	for i, size := 0, 0; i < len(html); i += size {
		b := html[i]
		size = 1
		switch {
		case inTag:
			inTag = b != '>'
		case b == '<':
			dst = c.endToken(dst)
			skip = skipAfterTag(html[i+1:], skip)
			inTag = true
		case skip != "":
			// inside a dropped script/style body
		case b < utf8.RuneSelf:
			if lower := b | 0x20; 'a' <= lower && lower <= 'z' {
				c.tok = append(c.tok, lower)
			} else {
				dst = c.endToken(dst)
			}
		default:
			// Invalid UTF-8 decodes to a one-byte RuneError, which is
			// not a letter: the reference splits there too.
			var r rune
			r, size = utf8.DecodeRuneInString(html[i:])
			if r = unicode.ToLower(r); unicode.IsLetter(r) {
				c.tok = utf8.AppendRune(c.tok, r)
			} else {
				dst = c.endToken(dst)
			}
		}
	}
	return c.endToken(dst)
}

// endToken closes the token in c.tok, if any, appending its term id to
// dst unless the token is dropped.
func (c *Cleaner) endToken(dst []int32) []int32 {
	if len(c.tok) >= 2 {
		id, ok := c.memo[string(c.tok)] // no allocation: map lookup by converted bytes
		if !ok {
			id = c.intern()
		}
		if id >= 0 {
			dst = append(dst, id)
		}
	}
	c.tok = c.tok[:0]
	return dst
}

// intern resolves a word form the memo has not seen: stop words map to
// -1, everything else is stemmed (in place, in c.tok) and given its
// stem's id, a new one if the stem is new too.
func (c *Cleaner) intern() int32 {
	raw := string(c.tok)
	id := int32(-1)
	if !stopWords[raw] {
		stem := stemBytes(c.tok)
		var ok bool
		if id, ok = c.ids[string(stem)]; !ok {
			id = int32(len(c.stems))
			s := raw // share the key when the form is its own stem
			if string(stem) != raw {
				s = string(stem)
			}
			c.ids[s] = id
			c.stems = append(c.stems, s)
		}
	}
	c.memo[raw] = id
	return id
}
