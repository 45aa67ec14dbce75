package corpus

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/analytic"
	"repro/internal/matrix"
	"repro/internal/text"
)

// Meta describes a generated corpus without materializing it — the
// pieces of Corpus that are O(K) rather than O(N).
type Meta struct {
	// Categories is the number of distinct categories.
	Categories int
	// CategoryNames mirrors Wikipedia's category titles.
	CategoryNames []string
	// Terms is the union top-F vocabulary size discovered by
	// StreamDense — the column count of the sparse tf-idf matrix the
	// batch path would materialize. Zero from GenerateStream.
	Terms int
}

// GenerateStream builds the corpus one document at a time, invoking fn
// for each in order. It produces byte-identical documents to Generate
// (which is a thin wrapper over it) while holding only the vocabulary
// in memory, so million-document corpora stream in O(VocabSize) space.
// A non-nil error from fn aborts generation and is returned unwrapped.
func GenerateStream(cfg Config, fn func(doc string, label int) error) (*Meta, error) {
	if cfg.NumDocs <= 0 {
		return nil, fmt.Errorf("corpus: NumDocs=%d must be positive", cfg.NumDocs)
	}
	k := cfg.NumCategories
	if k == 0 {
		k = analytic.CategoryLaw(cfg.NumDocs)
	}
	if k < 1 || k > cfg.NumDocs {
		return nil, fmt.Errorf("corpus: %d categories for %d docs", k, cfg.NumDocs)
	}
	if cfg.VocabSize == 0 {
		cfg.VocabSize = 2000
	}
	if cfg.VocabSize < k {
		return nil, fmt.Errorf("corpus: vocabulary %d smaller than category count %d", cfg.VocabSize, k)
	}
	if cfg.TokensPerDoc == 0 {
		cfg.TokensPerDoc = 80
	}
	if cfg.TokensPerDoc < 1 {
		return nil, fmt.Errorf("corpus: TokensPerDoc=%d", cfg.TokensPerDoc)
	}
	if cfg.CharTerms == 0 {
		cfg.CharTerms = 12
	}
	if matrix.IsZero(cfg.Focus) {
		cfg.Focus = 0.7
	}
	if cfg.Focus < 0 || cfg.Focus > 1 {
		return nil, fmt.Errorf("corpus: Focus=%v out of [0,1]", cfg.Focus)
	}
	if matrix.IsZero(cfg.TopicWeight) {
		cfg.TopicWeight = 0.55
	}
	if cfg.TopicWeight < 0 || cfg.TopicWeight > 1 {
		return nil, fmt.Errorf("corpus: TopicWeight=%v out of [0,1]", cfg.TopicWeight)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := makeVocabulary(rng, cfg.VocabSize)
	zipfW := zipfWeights(cfg.VocabSize)

	// Characteristic terms: disjoint slices of the vocabulary so that
	// categories do not share boosted terms. When the vocabulary is too
	// small for full disjointness, wrap around.
	charTerms := make([][]string, k)
	names := make([]string, k)
	for c := 0; c < k; c++ {
		terms := make([]string, cfg.CharTerms)
		for t := 0; t < cfg.CharTerms; t++ {
			terms[t] = vocab[(c*cfg.CharTerms+t)%cfg.VocabSize]
		}
		charTerms[c] = terms
		names[c] = "Category:" + capitalize(terms[0])
	}

	// Topic-hierarchy terms: Wikipedia categories live in a tree, and
	// documents use the broad vocabulary of their ancestors as well as
	// their leaf category's terms. Model the tree as 4-ary: level l
	// contributes one of four broad terms according to the l-th base-4
	// digit of the category index, so each broad term covers roughly a
	// quarter of the corpus. Quarter-coverage terms keep enough inverse
	// document frequency to rank high under tf-idf, which is what makes
	// them the large-span dimensions the LSH front-end keys on — they
	// are the "natural valleys" between category groups.
	const fanout = 4
	// Cap the hierarchy depth so a document's topic terms plus its
	// characteristic terms stay within the F=11 terms the paper keeps:
	// deeper trees would push topic terms out of the tf-idf top-F and
	// turn the corresponding hash bits into noise. Cells of the capped
	// tree may hold several leaf categories; separating those is the
	// per-bucket clustering's job.
	levels := levelsFor(k, fanout)
	if levels > 3 {
		levels = 3
	}
	topicTerms := make([][fanout]string, levels)
	for l := 0; l < levels; l++ {
		for d := 0; d < fanout; d++ {
			topicTerms[l][d] = "topic" + vocab[(fanout*l+d)%cfg.VocabSize]
		}
	}

	topics := make([]string, 0, levels)
	subset := make([]string, 0, cfg.CharTerms) // renderDoc's shuffle scratch
	for i := 0; i < cfg.NumDocs; i++ {
		c := i * k / cfg.NumDocs // balanced categories
		topics = topics[:0]
		code := c % pow(fanout, levels)
		for l := 0; l < levels; l++ {
			topics = append(topics, topicTerms[l][code%fanout])
			code /= fanout
		}
		doc := renderDoc(rng, cfg, names[c], charTerms[c], topics, vocab, zipfW, subset)
		if err := fn(doc, c); err != nil {
			return nil, err
		}
	}
	return &Meta{Categories: k, CategoryNames: names}, nil
}

// StreamDense runs the full §5.2 pipeline out of core: generate each
// document, clean it, keep its top-f terms by tf-idf, project into dims
// dense dimensions, and hand the L2-normalized row to fn. It is the
// streaming twin of Generate + VectorizeDense and produces bitwise-
// identical rows, holding only per-term tables and the lazily-grown
// projection rows in memory (O(vocabulary), not O(N)).
//
// The corpus is generated and cleaned once. idf needs every document's
// term set before the first row can be scored, so the work is two loops
// with a spool (spool.go) between them: the first loop streams the
// corpus, counts document frequencies (exactly VectorizeTopTerms' df
// map) and writes each document's label, length and (term id, tf) pairs
// to a temporary file in os.TempDir; the second reads those records back
// in order — never the text — scoring each document's terms,
// discovering the union vocabulary in the same first-use order as the
// batch path, and drawing each new term's Gaussian projection row from
// the same sequential rng stream that fills the batch projection matrix
// row-major. The file is removed before StreamDense returns, on every
// path.
//
// Everything works on the text.Cleaner's int32 term ids: df, idf, the
// first loop's per-document tf and the projection-row index are slices
// indexed by term id, and a stamp of the last document that touched a
// term replaces the per-document sets. Ids stand one-to-one for stems,
// so the term set of every document is the batch path's; the kept-term
// order is the same total order (weight descending, then stem), so the
// batch path's map-iteration nondeterminism and this path's first-
// occurrence order sort away identically; zero-skipping accumulation
// mirrors matrix.Mul and the norm mirrors matrix.Norm2, making every
// float op order-identical.
//
// The row slice passed to fn is reused; fn must not retain it. An error
// from fn stops the stream and is returned as it is.
func StreamDense(cfg Config, f, dims int, seed int64, fn func(row []float64, label int) error) (*Meta, error) {
	if cfg.NumDocs > math.MaxInt32 {
		return nil, fmt.Errorf("corpus: NumDocs=%d exceeds the %d documents the int32 document stamps and frequency counts can hold", cfg.NumDocs, math.MaxInt32)
	}
	return streamDense(func(each func(doc string, label int) error) (*Meta, error) {
		return GenerateStream(cfg, each)
	}, f, dims, seed, fn)
}

// streamDense is StreamDense over any document stream: docs calls each
// once per document, in order, at most math.MaxInt32 times, and returns
// the corpus's Meta.
func streamDense(docs func(each func(doc string, label int) error) (*Meta, error), f, dims int, seed int64, fn func(row []float64, label int) error) (_ *Meta, err error) {
	if f < 1 {
		return nil, fmt.Errorf("corpus: F=%d must be positive", f)
	}
	if dims < 1 {
		return nil, fmt.Errorf("corpus: dims=%d", dims)
	}

	sp, err := newSpool()
	if err != nil {
		return nil, err
	}
	defer func() {
		// Joined only when there is something to join, so that fn's error
		// reaches the caller unwrapped.
		if derr := sp.discard(); derr != nil {
			err = errors.Join(err, fmt.Errorf("corpus: spool: %w", derr))
		}
	}()

	cl := text.NewCleaner()
	var ids []int32   // the current document's term ids
	var terms []int32 // its distinct terms, in first-use order
	// Per-term tables, indexed by term id and grown as the Cleaner
	// assigns ids. stamp[t] is the 1-based number of the last document
	// that contained t; tf[t] is that document's count of t.
	var df, stamp, tf []int32
	var doc int32

	// Loop 1: document frequencies over the cleaned token streams, and
	// each document's term counts into the spool.
	meta, err := docs(func(html string, label int) error {
		doc++
		ids = cl.AppendIDs(ids[:0], html)
		for len(df) < cl.Terms() {
			df = append(df, 0)
			stamp = append(stamp, 0)
			tf = append(tf, 0)
		}
		terms = terms[:0]
		for _, t := range ids {
			if stamp[t] != doc {
				stamp[t] = doc
				df[t]++
				tf[t] = 0
				terms = append(terms, t)
			}
			tf[t]++
		}
		return sp.put(int(doc)-1, label, len(ids), terms, tf)
	})
	if err != nil {
		return nil, err
	}
	if len(df) == 0 {
		return nil, fmt.Errorf("corpus: corpus has no usable terms")
	}
	if err := sp.rewind(); err != nil {
		return nil, err
	}
	n := float64(doc)
	idf := make([]float64, len(df))
	for t, d := range df {
		v := math.Log(n / float64(d))
		if v <= 0 {
			v = 1e-9
		}
		idf[t] = v
	}

	// Loop 2: score, project, emit. Projection rows are drawn lazily in
	// vocabulary-discovery order from the same seeded stream the batch
	// path uses to fill its matrix row-major, so row j holds identical
	// bits in both.
	projRng := rand.New(rand.NewSource(seed ^ 0x5EED))
	scale := 1 / math.Sqrt(float64(dims))
	rowIndex := make([]int32, len(df)) // term id → projection row + 1; 0 = not yet discovered
	var projRows [][]float64
	rowOf := func(t int32) int {
		if rowIndex[t] == 0 {
			pr := make([]float64, dims)
			for c := range pr {
				pr[c] = projRng.NormFloat64() * scale
			}
			projRows = append(projRows, pr)
			rowIndex[t] = int32(len(projRows))
		}
		return int(rowIndex[t]) - 1
	}

	type weighted struct {
		term int32
		w    float64
	}
	var ws []weighted
	var ents []sparseEntry
	row := make([]float64, dims)
	for i := 0; i < int(doc); i++ {
		label, tokens, counts, err := sp.next(i, len(df))
		if err != nil {
			return nil, err
		}
		for c := range row {
			row[c] = 0
		}
		// A document with no usable terms keeps its zero row, as in the
		// batch path: nothing below touches row for it.
		ws = ws[:0]
		invLen := 1 / float64(tokens)
		for _, c := range counts {
			ws = append(ws, weighted{term: c.term, w: float64(c.tf) * invLen * idf[c.term]})
		}
		slices.SortFunc(ws, func(a, b weighted) int {
			if c := cmp.Compare(b.w, a.w); c != 0 {
				return c
			}
			return strings.Compare(cl.Stem(a.term), cl.Stem(b.term))
		})
		if len(ws) > f {
			ws = ws[:f]
		}
		// Discover vocabulary in kept (rank) order — the batch path's
		// first-use order — then process entries in column order, which
		// is the order both Norm2 and Mul walk the full-width row.
		ents = ents[:0]
		for _, w := range ws {
			ents = append(ents, sparseEntry{rowOf(w.term), w.w})
		}
		slices.SortFunc(ents, func(a, b sparseEntry) int { return cmp.Compare(a.j, b.j) })
		norm := norm2Entries(ents)
		if !matrix.IsZero(norm) {
			inv := 1 / norm
			for i := range ents {
				ents[i].w *= inv
			}
		}
		for _, e := range ents {
			if matrix.IsZero(e.w) {
				continue // matrix.Mul's zero-skip
			}
			for c, v := range projRows[e.j] {
				row[c] += e.w * v
			}
		}
		matrix.Normalize(row)
		if err := fn(row, label); err != nil {
			return nil, err
		}
	}
	meta.Terms = len(projRows)
	return meta, nil
}

// sparseEntry is one non-zero of a document's tf-idf row: column index
// in the union vocabulary and the (eventually normalized) weight.
type sparseEntry struct {
	j int
	w float64
}

// norm2Entries is matrix.Norm2 over a compact sparse row: the entries
// are the row's non-zeros in column order, so the scaled sum-of-squares
// recurrence visits the same values in the same order and returns the
// same bits as the full-width computation.
func norm2Entries(ents []sparseEntry) float64 {
	var scale, ssq float64 = 0, 1
	for _, e := range ents {
		if matrix.IsZero(e.w) {
			continue
		}
		a := math.Abs(e.w)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
