// Package corpus synthesizes a category-structured document collection
// that stands in for the paper's 3.5M-document Wikipedia crawl (§5.2).
// Documents are emitted as small HTML pages over a Zipfian vocabulary
// of pronounceable pseudo-English words; each category boosts its own
// characteristic terms, so the downstream text pipeline (strip, stem,
// tf-idf) recovers a clusterable vector representation with ground-
// truth labels — the property the paper's Figure 3 accuracy metric
// needs. The number of categories follows the paper's fitted law
// K = 17(log2 N - 9) by default (Table 1 / Eq. 15).
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/text"
)

// Config controls corpus generation.
type Config struct {
	// NumDocs is the number of documents (required).
	NumDocs int
	// NumCategories overrides the Table 1 law when positive.
	NumCategories int
	// VocabSize is the background vocabulary size (default 2000).
	VocabSize int
	// TokensPerDoc is the mean document length in content tokens
	// (default 80).
	TokensPerDoc int
	// CharTerms is the number of characteristic terms per category
	// (default 12).
	CharTerms int
	// Focus is the probability that a token is drawn from the
	// category's own vocabulary (characteristic or topic-hierarchy
	// terms) rather than the background Zipf distribution (default 0.7).
	Focus float64
	// TopicWeight is the fraction of the Focus mass spent on the broad
	// topic-hierarchy terms shared by category groups, as opposed to
	// the category's characteristic leaf terms (default 0.4). Higher
	// values make the broad terms rank higher under tf-idf, which is
	// what gives the LSH front-end dense splitting dimensions.
	TopicWeight float64
	// Seed makes generation reproducible.
	Seed int64
}

// Corpus is a generated document collection with ground truth.
type Corpus struct {
	// Docs holds raw HTML documents.
	Docs []string
	// Labels[i] is the category of Docs[i].
	Labels []int
	// Categories is the number of distinct categories.
	Categories int
	// CategoryNames mirrors Wikipedia's category titles.
	CategoryNames []string
}

// Generate builds a corpus per the configuration. It is a thin wrapper
// over GenerateStream that materializes every document; use the
// streaming form directly when the collection is too large to hold.
func Generate(cfg Config) (*Corpus, error) {
	c := &Corpus{}
	meta, err := GenerateStream(cfg, func(doc string, label int) error {
		c.Docs = append(c.Docs, doc)
		c.Labels = append(c.Labels, label)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.Categories = meta.Categories
	c.CategoryNames = meta.CategoryNames
	return c, nil
}

// levelsFor returns the number of base-`fanout` digits needed to index
// k categories, at least 1.
func levelsFor(k, fanout int) int {
	b, p := 1, fanout
	for p < k {
		p *= fanout
		b++
	}
	return b
}

// pow is integer exponentiation for small arguments.
func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// glue is the stop-word sprinkling renderDoc mixes into every document.
var glue = []string{"the", "and", "of", "in", "with", "for"}

// Fixed framing of a rendered document, around the category name.
const (
	docHead = "<html><head><title>"
	docMid  = "</title><style>p{margin:0}</style></head><body><p>"
	docTail = ".</p></body></html>"
)

// renderDoc emits one HTML document: a title, a summary paragraph of
// category-focused tokens mixed with the category's topic-hierarchy
// terms, and a sprinkling of stop words so the cleaning pipeline has
// real work to do. subset is scratch of capacity >= len(char), reused
// across documents.
func renderDoc(rng *rand.Rand, cfg Config, name string, char, topics []string, vocab []string, zipfW []float64, subset []string) string {
	// Document length jitters around the mean, and each document uses
	// its own subset of the category's characteristic terms with its
	// own focus — real articles in one category vary in vocabulary and
	// topicality, and that intra-category spread is what produces
	// signature diversity under LSH.
	length := cfg.TokensPerDoc/2 + rng.Intn(cfg.TokensPerDoc+1)
	if length < 1 {
		length = 1
	}
	if len(char) > 4 {
		subset = append(subset[:0], char...)
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		keep := len(subset)/2 + rng.Intn(len(subset)/2+1)
		char = subset[:keep]
	}
	focus := cfg.Focus * (0.85 + 0.3*rng.Float64())
	if focus > 0.95 {
		focus = 0.95
	}
	var sb strings.Builder
	// A token with its separator, glue and inflection takes 11.8 bytes
	// at the median document and 13.3 at the 99th percentile (default
	// config); 13 keeps nearly every document to one allocation.
	sb.Grow(len(docHead) + len(name) + len(docMid) + 13*length + len(docTail))
	sb.WriteString(docHead)
	sb.WriteString(name)
	sb.WriteString(docMid)
	for t := 0; t < length; t++ {
		if t > 0 {
			sb.WriteByte(' ')
		}
		if rng.Float64() < 0.25 {
			sb.WriteString(glue[rng.Intn(len(glue))])
			sb.WriteByte(' ')
		}
		var word string
		switch r := rng.Float64(); {
		case r < focus*(1-cfg.TopicWeight):
			word = char[rng.Intn(len(char))]
		case r < focus:
			word = topics[rng.Intn(len(topics))]
		default:
			word = vocab[sampleZipf(rng, zipfW)]
		}
		// A random inflection gives the Porter stemmer real suffixes to
		// strip; the stem stays the vocabulary word.
		sb.WriteString(word)
		sb.WriteString(inflMap[rng.Intn(len(inflMap))])
	}
	sb.WriteString(docTail)
	return sb.String()
}

// syllables used to build pronounceable vocabulary words.
var (
	onsets  = []string{"b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "cl", "dr", "gr", "pl", "st", "tr"}
	nuclei  = []string{"a", "e", "i", "o", "u", "ai", "ea", "ou"}
	inflMap = []string{"", "", "", "s", "ing", "ed", "ly"}
)

// makeVocabulary builds n distinct pseudo-English stems.
func makeVocabulary(rng *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var sb strings.Builder
		syll := 2 + rng.Intn(2)
		for s := 0; s < syll; s++ {
			sb.WriteString(onsets[rng.Intn(len(onsets))])
			sb.WriteString(nuclei[rng.Intn(len(nuclei))])
		}
		w := sb.String()
		if text.IsStopWord(w) || seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	return out
}

// capitalize upper-cases the first ASCII letter of a vocabulary word.
func capitalize(s string) string {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// zipfWeights returns unnormalized 1/rank weights.
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	// Cumulative form for sampling.
	for i := 1; i < n; i++ {
		w[i] += w[i-1]
	}
	return w
}

// sampleZipf draws an index from the cumulative weights by binary search.
func sampleZipf(rng *rand.Rand, cum []float64) int {
	r := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Vectorize runs the full text pipeline over the corpus and returns the
// tf-idf vectors with ground-truth labels: Clean each document, keep
// each document's top-f terms by tf-idf (the paper's F=11 scheme), and
// embed every document in the union vocabulary of kept terms.
func (c *Corpus) Vectorize(f int) (*dataset.Labeled, error) {
	cleaned := make([][]string, len(c.Docs))
	cl := text.NewCleaner()
	for i, d := range c.Docs {
		cleaned[i] = cl.Clean(d)
	}
	pts, _, err := text.VectorizeTopTerms(cleaned, f)
	if err != nil {
		return nil, err
	}
	labels := append([]int(nil), c.Labels...)
	return &dataset.Labeled{Points: pts, Labels: labels}, nil
}

// VectorizeDense is Vectorize followed by a Gaussian random projection
// to dims dense dimensions (L2-normalized rows). The paper represents
// every document as a d = 11-dimensional point; the sparse
// union-vocabulary embedding is projected down to the same kind of
// dense low-dimensional representation — random projection is the
// technique the paper itself singles out as best for high-dimensional
// data clustering (§3.2, citing Fern & Brodley). Distances, and hence
// both the clustering and the LSH span/threshold statistics, are
// preserved in the Johnson–Lindenstrauss sense.
func (c *Corpus) VectorizeDense(f, dims int, seed int64) (*dataset.Labeled, error) {
	if dims < 1 {
		return nil, fmt.Errorf("corpus: dims=%d", dims)
	}
	l, err := c.Vectorize(f)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	d := l.Points.Cols()
	proj := matrix.NewDense(d, dims)
	scale := 1 / math.Sqrt(float64(dims))
	for i := range proj.Data() {
		proj.Data()[i] = rng.NormFloat64() * scale
	}
	dense, err := matrix.Mul(l.Points, proj)
	if err != nil {
		return nil, err
	}
	matrix.NormalizeRows(dense)
	return &dataset.Labeled{Points: dense, Labels: l.Labels}, nil
}
