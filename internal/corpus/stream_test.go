package corpus

import (
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateStreamByteIdentity is the streaming contract: the
// documents handed to the callback are byte-identical, in order, to the
// slices Generate materializes.
func TestGenerateStreamByteIdentity(t *testing.T) {
	cfg := Config{NumDocs: 150, NumCategories: 6, Seed: 19}
	batch, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	meta, err := GenerateStream(cfg, func(doc string, label int) error {
		if doc != batch.Docs[i] {
			t.Fatalf("doc %d differs:\nstream %q\nbatch  %q", i, doc, batch.Docs[i])
		}
		if label != batch.Labels[i] {
			t.Fatalf("label %d = %d, batch %d", i, label, batch.Labels[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != cfg.NumDocs {
		t.Fatalf("streamed %d docs, want %d", i, cfg.NumDocs)
	}
	if meta.Categories != batch.Categories {
		t.Fatalf("categories %d vs %d", meta.Categories, batch.Categories)
	}
	for c, name := range meta.CategoryNames {
		if name != batch.CategoryNames[c] {
			t.Fatalf("name[%d] %q vs %q", c, name, batch.CategoryNames[c])
		}
	}
}

// TestGenerateStreamAbort checks a callback error stops generation and
// surfaces unwrapped.
func TestGenerateStreamAbort(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	_, err := GenerateStream(Config{NumDocs: 50, NumCategories: 2, Seed: 3}, func(string, int) error {
		n++
		if n == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 7 {
		t.Fatalf("callback ran %d times after abort", n)
	}
}

// TestGenerateStreamValidation mirrors Generate's config checks on the
// streaming entry point.
func TestGenerateStreamValidation(t *testing.T) {
	for i, cfg := range []Config{
		{NumDocs: 0},
		{NumDocs: 10, NumCategories: 11},
		{NumDocs: 10, Focus: 1.5},
	} {
		if _, err := GenerateStream(cfg, func(string, int) error { return nil }); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

// TestStreamDenseBitwiseIdentity is the out-of-core vectorizer's
// contract: every float64 it emits must carry the same bits as the
// batch Generate + VectorizeDense pipeline, so shard files written from
// the stream feed the sharded driver the exact in-memory dataset.
func TestStreamDenseBitwiseIdentity(t *testing.T) {
	for _, tc := range []struct {
		cfg     Config
		f, dims int
		seed    int64
	}{
		{Config{NumDocs: 200, NumCategories: 8, Seed: 77}, 11, 12, 5},
		{Config{NumDocs: 331, NumCategories: 13, VocabSize: 600, TokensPerDoc: 40, Seed: 3}, 5, 7, 91},
	} {
		c, err := Generate(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := c.Vectorize(tc.f)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := c.VectorizeDense(tc.f, tc.dims, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		meta, err := StreamDense(tc.cfg, tc.f, tc.dims, tc.seed, func(row []float64, label int) error {
			if len(row) != tc.dims {
				t.Fatalf("row %d has %d dims", i, len(row))
			}
			want := batch.Points.Row(i)
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(want[j]) {
					t.Fatalf("row %d col %d: stream %x batch %x (%v vs %v)",
						i, j, math.Float64bits(v), math.Float64bits(want[j]), v, want[j])
				}
			}
			if label != batch.Labels[i] {
				t.Fatalf("label %d = %d, batch %d", i, label, batch.Labels[i])
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != tc.cfg.NumDocs {
			t.Fatalf("streamed %d rows, want %d", i, tc.cfg.NumDocs)
		}
		if meta.Categories != c.Categories {
			t.Fatalf("categories %d vs %d", meta.Categories, c.Categories)
		}
		if meta.Terms != sparse.Points.Cols() {
			t.Fatalf("Meta.Terms = %d, batch tf-idf matrix has %d columns", meta.Terms, sparse.Points.Cols())
		}
	}
}

// TestStreamDenseValidation pins the parameter checks.
func TestStreamDenseValidation(t *testing.T) {
	fn := func([]float64, int) error { return nil }
	if _, err := StreamDense(Config{NumDocs: 10, NumCategories: 2, Seed: 1}, 0, 4, 1, fn); err == nil {
		t.Error("F=0 accepted")
	}
	if _, err := StreamDense(Config{NumDocs: 10, NumCategories: 2, Seed: 1}, 11, 0, 1, fn); err == nil {
		t.Error("dims=0 accepted")
	}
	if _, err := StreamDense(Config{NumDocs: 0}, 11, 4, 1, fn); err == nil {
		t.Error("empty corpus accepted")
	}
	// One document more than the int32 document stamps can number must
	// be refused up front, not after 2^31 documents wrap the counts.
	tooMany := int64(math.MaxInt32) + 1
	if _, err := StreamDense(Config{NumDocs: int(tooMany), NumCategories: 2, Seed: 1}, 11, 4, 1, fn); err == nil {
		t.Error("NumDocs beyond int32 accepted")
	}
}

// TestStreamDenseLeavesNoSpool checks the spool file is gone after every
// kind of return — success, a callback error at the first, a middle and
// the last document, and a corpus the generator refuses — and that the
// callback's error comes back as it was given, after exactly the calls
// that preceded it (TestGenerateStreamAbort's twin).
func TestStreamDenseLeavesNoSpool(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cfg := Config{NumDocs: 50, NumCategories: 2, Seed: 3}
	boom := errors.New("boom")
	for _, failAt := range []int{0, 1, 25, 50} { // 0: no failure
		n := 0
		_, err := StreamDense(cfg, 11, 4, 1, func([]float64, int) error {
			if n++; n == failAt {
				return boom
			}
			return nil
		})
		if failAt == 0 {
			if err != nil || n != cfg.NumDocs {
				t.Fatalf("clean run: err = %v after %d rows", err, n)
			}
		} else if err != boom || n != failAt { // ==, not errors.Is: unwrapped is the contract
			t.Fatalf("failAt %d: err = %v after %d rows, want bare boom", failAt, err, n)
		}
		assertEmptyDir(t, tmp)
	}
	for _, bad := range []Config{{NumDocs: 0}, {NumDocs: 10, Focus: 1.5}} {
		if _, err := StreamDense(bad, 11, 4, 1, func([]float64, int) error { return nil }); err == nil {
			t.Fatalf("%+v accepted", bad)
		}
		assertEmptyDir(t, tmp)
	}
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}

// TestStreamDenseSpoolCreateError checks an unusable temp directory is
// reported as the spool's failure, with the cause still matchable.
func TestStreamDenseSpoolCreateError(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	called := false
	_, err := StreamDense(Config{NumDocs: 10, NumCategories: 2, Seed: 1}, 11, 4, 1, func([]float64, int) error {
		called = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "corpus: spool") || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want a corpus: spool error wrapping fs.ErrNotExist", err)
	}
	if called {
		t.Fatal("rows emitted without a spool")
	}
}

// TestStreamDenseZeroRowInPosition feeds the ingest a corpus in which
// some documents clean to nothing: their records travel through the
// spool like any other, and each still comes out as the zero row, where
// the batch path puts it, with every other row's bits unmoved.
func TestStreamDenseZeroRowInPosition(t *testing.T) {
	c, err := Generate(Config{NumDocs: 60, NumCategories: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	blank := map[int]bool{0: true, 17: true, 59: true}
	for i := range blank {
		c.Docs[i] = "<p> ... </p>"
	}
	const f, dims, seed = 11, 6, 4
	batch, err := c.VectorizeDense(f, dims, seed)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	_, err = streamDense(func(each func(string, int) error) (*Meta, error) {
		for d, doc := range c.Docs {
			if err := each(doc, c.Labels[d]); err != nil {
				return nil, err
			}
		}
		return &Meta{Categories: c.Categories}, nil
	}, f, dims, seed, func(row []float64, label int) error {
		want := batch.Points.Row(i)
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("row %d col %d: stream %v batch %v", i, j, v, want[j])
			}
			if blank[i] && v != 0 {
				t.Fatalf("blank document %d has %v in col %d", i, v, j)
			}
		}
		if label != c.Labels[i] {
			t.Fatalf("label %d = %d, want %d", i, label, c.Labels[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(c.Docs) {
		t.Fatalf("streamed %d rows, want %d", i, len(c.Docs))
	}
}

// TestSpoolRejectsCorruptRecords pins the reading side: a record that
// ends early or that put cannot have written is an error naming the
// document, and a sound record in front of it still decodes.
func TestSpoolRejectsCorruptRecords(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	good := uv(7, 5, 2, 0, 3, 9, 2) // label 7, 5 tokens, terms 0×3 and 9×2
	for name, tc := range map[string]struct {
		bad  []byte
		want string
	}{
		"missing":                   {nil, io.ErrUnexpectedEOF.Error()},
		"cut inside header":         {uv(1, 4), io.ErrUnexpectedEOF.Error()},
		"cut inside pairs":          {uv(1, 4, 2, 0, 1, 3), io.ErrUnexpectedEOF.Error()},
		"term id too large":         {uv(1, 4, 1, 10, 1), "term id 10 of 10"},
		"more distinct than tokens": {uv(1, 2, 3, 0, 1, 1, 1, 2, 1), "3 distinct terms in 2 tokens"},
	} {
		sp, err := newSpool()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.w.Write(append(append([]byte(nil), good...), tc.bad...)); err != nil {
			t.Fatal(err)
		}
		if err := sp.rewind(); err != nil {
			t.Fatal(err)
		}
		label, tokens, cs, err := sp.next(0, 10)
		if err != nil || label != 7 || tokens != 5 || len(cs) != 2 || cs[0] != (termCount{0, 3}) || cs[1] != (termCount{9, 2}) {
			t.Fatalf("%s: sound record decoded as %d %d %v, %v", name, label, tokens, cs, err)
		}
		_, _, _, err = sp.next(1, 10)
		if err == nil || !strings.Contains(err.Error(), "corpus: spool: read document 1: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want document 1 and %q", name, err, tc.want)
		}
		if err := sp.discard(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpoolWriteError checks a spool that stops taking bytes says so,
// naming itself and the document, once its buffer has to drain.
func TestSpoolWriteError(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	sp, err := newSpool()
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.f.Close(); err != nil { // every later write fails
		t.Fatal(err)
	}
	terms, tf := []int32{0, 1, 2}, []int32{4, 5, 6}
	for doc := 0; err == nil && doc < spoolBufBytes; doc++ {
		err = sp.put(doc, 1, 15, terms, tf)
	}
	if err == nil || !strings.Contains(err.Error(), "corpus: spool: write document") || !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("err = %v, want a corpus: spool write error wrapping fs.ErrClosed", err)
	}
	if err := sp.rewind(); err == nil {
		t.Error("rewind succeeded on a dead spool")
	}
	if err := sp.discard(); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("discard = %v, want the close failure reported", err)
	}
}

// BenchmarkStreamDense measures one full ingest — one pass over the
// documents, one over the spool — at the size of the repository
// benchmark's corpus-local workload.
func BenchmarkStreamDense(b *testing.B) {
	cfg := Config{NumDocs: 4096, VocabSize: 8192, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := StreamDense(cfg, 11, 16, 1, func([]float64, int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.NumDocs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}
