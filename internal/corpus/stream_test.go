package corpus

import (
	"errors"
	"math"
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

// BenchmarkStreamDense measures one full two-pass ingest at the size of
// the repository benchmark's corpus-local workload.
func BenchmarkStreamDense(b *testing.B) {
	cfg := Config{NumDocs: 4096, VocabSize: 8192, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := StreamDense(cfg, 11, 16, 1, func([]float64, int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
