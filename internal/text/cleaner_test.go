package text_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/text"
)

// referenceClean is the specification of the cleaning pipeline as the
// composition of its exported steps.
func referenceClean(s string) []string {
	var out []string
	for _, t := range text.Tokenize(text.StripHTML(s)) {
		if len(t) < 2 || text.IsStopWord(t) {
			continue
		}
		out = append(out, text.PorterStem(t))
	}
	return out
}

// generatorDocs returns a small synthetic crawl, the documents the
// ingest path actually cleans.
func generatorDocs(tb testing.TB, n, vocab int) []string {
	tb.Helper()
	c, err := corpus.Generate(corpus.Config{NumDocs: n, NumCategories: 8, VocabSize: vocab, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return c.Docs
}

// FuzzCleanerMatchesReference holds the fused scanner to the reference
// composition token for token. One Cleaner is reused across all inputs,
// so a memo entry written for one document that changed another's
// output would surface as a mismatch; a fresh Cleaner checks the same
// input without history, which keeps a failing input reproducible.
func FuzzCleanerMatchesReference(f *testing.F) {
	for _, d := range generatorDocs(f, 8, 200) {
		f.Add(d)
	}
	for _, s := range []string{
		"",
		"plain text, with Punctuation! and the stop words",
		"a<b",
		"<p",
		"<script>never closed the running dogs",
		"<style>x</style>done>",
		"<<>>nested <<b>> angles>",
		"<SCRIPT>var x = 1;</SCRIPT>Upper <StYlE>p{}</sTyLe>case",
		"<script>if (a<b) evil()</script> swallowed tail",
		"<scripted>not a script</scripted> element",
		"bad \xff\xfe bytes \xc3<b>\xa9 split \xe2\x82 truncated",
		"İstanbul <script>evil payload</script> world",
		"\u212Aelvin <STYLE>evil payload</style> \u212A\u212A scale",
		"<scr\u0130pt>visible</scr\u0130pt>",
		"cafe\u0301 re\u0301sume\u0301 naïve ÉCOLE straße",
		"ǅungla ǈubav ΣΊΣΥΦΟΣ Ⅻ ⓐⓑ",
		"relational conditional hopping running ponies caresses",
	} {
		f.Add(s)
	}
	shared := text.NewCleaner()
	f.Fuzz(func(t *testing.T, s string) {
		want := referenceClean(s)
		if got := shared.Clean(s); !slices.Equal(got, want) {
			t.Fatalf("shared Cleaner on %q:\n got %q\nwant %q", s, got, want)
		}
		if got := text.NewCleaner().Clean(s); !slices.Equal(got, want) {
			t.Fatalf("fresh Cleaner on %q:\n got %q\nwant %q", s, got, want)
		}
	})
}

// TestCleanerIDs pins the id contract: ids are dense, first-use
// ordered, shared exactly by tokens with the same stem, and AppendIDs
// appends.
func TestCleanerIDs(t *testing.T) {
	c := text.NewCleaner()
	ids := c.AppendIDs([]int32{42}, "<p>Clusters of the clustering kernels; a kernel clustered</p>")
	if want := []int32{42, 0, 0, 1, 1, 0}; !slices.Equal(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	if c.Terms() != 2 || c.Stem(0) != "cluster" || c.Stem(1) != "kernel" {
		t.Fatalf("terms = %d (%q, %q)", c.Terms(), c.Stem(0), c.Stem(1))
	}
}

// TestCleanerSecondPassAllocatesNothing is the point of the memo: once
// every word form of a document set is known, cleaning the set again
// into a reused id buffer does not touch the heap.
func TestCleanerSecondPassAllocatesNothing(t *testing.T) {
	docs := generatorDocs(t, 64, 500)
	c := text.NewCleaner()
	var ids []int32
	pass := func() {
		for _, d := range docs {
			ids = c.AppendIDs(ids[:0], d)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("second pass allocated %v times per run", allocs)
	}
}

// TestCleanConcurrent drives the pooled entry point from several
// goroutines at once (meaningful under -race): each borrows its own
// Cleaner, so outputs must still match the reference.
func TestCleanConcurrent(t *testing.T) {
	docs := generatorDocs(t, 32, 300)
	want := make([][]string, len(docs))
	for i, d := range docs {
		want[i] = referenceClean(d)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, d := range docs {
				if got := text.Clean(d); !slices.Equal(got, want[i]) {
					t.Errorf("doc %d: got %q want %q", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

var benchSink int

// BenchmarkClean measures cleaning a corpus three ways: through the
// text.Clean entry point (pooled Cleaner, memo warm after the first
// iteration), with a fresh Cleaner per document (what Clean would cost
// without the pool), and with one Cleaner shared across the corpus and
// started cold, the way corpus.StreamDense's first pass runs.
func BenchmarkClean(b *testing.B) {
	docs := generatorDocs(b, 1024, 8192)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				benchSink += len(text.Clean(d))
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				benchSink += len(text.NewCleaner().Clean(d))
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := text.NewCleaner()
			var ids []int32
			for _, d := range docs {
				ids = c.AppendIDs(ids[:0], d)
				benchSink += len(ids)
			}
		}
	})
}
