package baseline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/analytic"
	"repro/internal/corpus"
	"repro/internal/dataset"
)

// labelHash is FNV-64a over the labels as little-endian uint64s.
func labelHash(labels []int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBaselinePinned pins the four baselines' labels, and NYST's and
// PSC's similarity accounting, on a 16-dim mixture and on Figure 3's
// corpus at its smallest size. A refactor below the baselines (the
// shared Nyström, Laplacian and sparse eigensolver code) must reproduce
// every value; a change that moves one on purpose re-pins it and says
// why.
func TestBaselinePinned(t *testing.T) {
	mix := testBlobs(t, 600, 16, 5, 0.05, 31)
	// Figure 3's corpus recipe at 512 documents. Eq. 15 gives one
	// category there, which pins nothing, so the categories are those of
	// the figure's first full-scale row (1 024 documents, K = 17).
	k := analytic.CategoryLaw(1024)
	c, err := corpus.Generate(corpus.Config{NumDocs: 512, NumCategories: k, Seed: 512, CharTerms: 8, VocabSize: k*8 + 256})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Vectorize(11)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name string
		l    *dataset.Labeled
		k    int
		want map[string]string
	}{
		{"mixture", mix, 5, map[string]string{
			"sc":   "ab53848f0f49fb25",
			"psc":  "501be5d52d9c25a1 gram=136688 nnz=17086",
			"nyst": "8d25ce46b4effb25 gram=169984 nnz=42496",
			"km":   "ab53848f0f49fb25",
		}},
		{"corpus", doc, c.Categories, map[string]string{
			"sc":   "d85e1127525c9bca",
			"psc":  "86e0992255b17d04 gram=159296 nnz=19912",
			"nyst": "bb4073bc3520d416 gram=157760 nnz=39440",
			"km":   "46641c1e73b1cadd",
		}},
	}
	algos := []struct {
		name string
		run  func(*dataset.Labeled, int) (*Result, error)
	}{
		{"sc", func(l *dataset.Labeled, k int) (*Result, error) { return SC(l.Points, Config{K: k, Seed: 1}) }},
		{"psc", func(l *dataset.Labeled, k int) (*Result, error) { return PSC(l.Points, Config{K: k, Seed: 1}) }},
		{"nyst", func(l *dataset.Labeled, k int) (*Result, error) { return NYST(l.Points, Config{K: k, Seed: 1}) }},
		{"km", func(l *dataset.Labeled, k int) (*Result, error) { return KM(l.Points, Config{K: k, Seed: 1}) }},
	}
	for _, fx := range fixtures {
		for _, a := range algos {
			res, err := a.run(fx.l, fx.k)
			if err != nil {
				t.Fatalf("%s/%s: %v", fx.name, a.name, err)
			}
			got := labelHash(res.Labels)
			if a.name == "psc" || a.name == "nyst" {
				got += fmt.Sprintf(" gram=%d nnz=%d", res.GramBytes, res.NNZ)
			}
			if got != fx.want[a.name] {
				t.Errorf("%s/%s: %s, pinned %q (accuracy %.3f)", fx.name, a.name, got, fx.want[a.name], accuracyOf(t, fx.l.Labels, res.Labels))
			}
		}
	}
}
