package text

import (
	"math"
	"strings"
	"testing"

	"repro/internal/matrix"
)

func TestVectorizeTopTermsValidation(t *testing.T) {
	if _, _, err := VectorizeTopTerms(nil, 5); err == nil {
		t.Fatal("expected error for empty corpus")
	}
	if _, _, err := VectorizeTopTerms([][]string{{"a"}}, 0); err == nil {
		t.Fatal("expected error for F=0")
	}
	if _, _, err := VectorizeTopTerms([][]string{{}, {}}, 3); err == nil {
		t.Fatal("expected error for corpus without terms")
	}
}

func TestVectorizeTopTermsKeepsAtMostF(t *testing.T) {
	docs := [][]string{
		{"a", "b", "c", "d", "e", "f"},
		{"a", "g", "h"},
	}
	m, vocab, err := VectorizeTopTerms(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Each row has at most 2 nonzeros.
	for i := 0; i < m.Rows(); i++ {
		nz := 0
		for _, v := range m.Row(i) {
			if v != 0 {
				nz++
			}
		}
		if nz > 2 {
			t.Fatalf("doc %d kept %d terms, F=2", i, nz)
		}
	}
	if len(vocab) != m.Cols() {
		t.Fatalf("vocab %d vs cols %d", len(vocab), m.Cols())
	}
}

func TestVectorizeTopTermsRowsNormalized(t *testing.T) {
	docs := [][]string{
		{"alpha", "alpha", "beta"},
		{"gamma"},
		{}, // empty doc -> zero row
	}
	m, _, err := VectorizeTopTerms(docs, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(matrix.Norm2(m.Row(0))-1) > 1e-12 {
		t.Fatalf("row 0 norm %v", matrix.Norm2(m.Row(0)))
	}
	if matrix.Norm2(m.Row(2)) != 0 {
		t.Fatal("empty doc must be the zero vector")
	}
}

func TestVectorizeTopTermsPrefersRareTerms(t *testing.T) {
	// "common" appears everywhere (idf ~ 0); each doc's rare term must
	// outrank it in the kept set when F=1.
	docs := [][]string{
		{"common", "rare1", "common"},
		{"common", "rare2", "common"},
		{"common", "rare3", "common"},
	}
	m, vocab, err := VectorizeTopTerms(docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(vocab, " ")
	if strings.Contains(joined, "common") {
		t.Fatalf("common term survived top-1 selection: %v", vocab)
	}
	for i := 0; i < 3; i++ {
		if matrix.Norm2(m.Row(i)) == 0 {
			t.Fatalf("doc %d lost its rare term", i)
		}
	}
}

func TestStripHTMLEdgeCases(t *testing.T) {
	cases := map[string]string{
		"":                      "",
		"plain text":            "plain text",
		"<p>":                   " ",
		"a<b":                   "a",     // unterminated tag swallows the rest
		"<style>x</style>done>": "done>", // style body dropped, tail kept
	}
	for in, wantContains := range cases {
		got := StripHTML(in)
		if wantContains == "" {
			if got != "" {
				t.Errorf("StripHTML(%q) = %q", in, got)
			}
			continue
		}
		if !strings.Contains(got, strings.TrimSpace(wantContains)) && got != wantContains {
			t.Errorf("StripHTML(%q) = %q, want contains %q", in, got, wantContains)
		}
	}
	// U+0130 and U+212A lower-case to shorter encodings: matching tag
	// names in a lower-cased copy with the original's offsets used to
	// miss every <script>/<style> after one of them.
	for _, in := range []string{
		"İstanbul <script>evil payload</script> world",
		"\u212Aelvin <STYLE>evil payload</STYLE> world",
	} {
		got := StripHTML(in)
		if strings.Contains(got, "evil") || !strings.Contains(got, "world") {
			t.Errorf("StripHTML(%q) = %q, want the element body dropped and the tail kept", in, got)
		}
	}
	if got := strings.Join(Clean("İstanbul <script>evil payload</script> world"), " "); got != "istanbul world" {
		t.Errorf("Clean kept a script body after U+0130: %q", got)
	}
}

func TestCleanDropsShortTokens(t *testing.T) {
	got := Clean("<p>a I x go running</p>")
	for _, tok := range got {
		if len(tok) < 2 {
			t.Fatalf("single-letter token %q survived", tok)
		}
	}
}
