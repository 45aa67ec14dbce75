package mapreduce

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestEmbedBucketRoundTrip pins the bucket record codec: every encoded
// record, of either kind, decodes back to the same kind, the same
// indices (sorted or not) and bitwise-identical rows, including
// non-finite and signed-zero payloads.
func TestEmbedBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct{ n, dim int }{
		{1, 2}, {3, 8}, {64, 16}, {257, 6},
	}
	for si, s := range shapes {
		kind := byte(EmbedBucketKind)
		if si%2 == 1 {
			kind = RawBucketKind
		}
		indices := make([]int, s.n)
		rows := make([]float64, s.n*s.dim)
		for i := range indices {
			indices[i] = int(rng.Int31())
		}
		for i := range rows {
			rows[i] = rng.NormFloat64()
		}
		rows[0] = math.Copysign(0, -1)
		if len(rows) > 1 {
			rows[1] = math.Inf(1)
		}
		rec := AppendBucketRows(nil, kind, indices, s.dim, rows)
		gotKind, gotIdx, gotDim, gotRows, err := ParseBucketRows(rec)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.n, s.dim, err)
		}
		if gotKind != kind || rec[0] != kind {
			t.Fatalf("record kind = %q (leading byte %q), want %q", gotKind, rec[0], kind)
		}
		if gotDim != s.dim || !slices.Equal(gotIdx, indices) || len(gotRows) != len(rows) {
			t.Fatalf("%dx%d decoded as %d x %d (%d rows)", s.n, s.dim, len(gotIdx), gotDim, len(gotRows))
		}
		for i := range rows {
			if math.Float64bits(gotRows[i]) != math.Float64bits(rows[i]) {
				t.Fatalf("row value %d = %x, want %x", i, math.Float64bits(gotRows[i]), math.Float64bits(rows[i]))
			}
		}
	}
}

// TestEmbedBucketAppendsInPlace verifies Append semantics: the record
// extends dst without clobbering what is already there.
func TestEmbedBucketAppendsInPlace(t *testing.T) {
	prefix := []byte{1, 2, 3}
	rec := AppendBucketRows(append([]byte(nil), prefix...), EmbedBucketKind, []int{7}, 2, []float64{0.5, -0.5})
	if string(rec[:3]) != string(prefix) {
		t.Fatalf("prefix clobbered: %v", rec[:3])
	}
	if _, _, _, _, err := ParseBucketRows(rec[3:]); err != nil {
		t.Fatalf("suffix did not parse: %v", err)
	}
}

// TestBucketRowsDeltaIndicesRoundTrip checks what the delta encoding is for:
// a sorted bucket's indices cost about a byte each, and every
// truncation of the record — which can cut a varint in half — is
// rejected.
func TestBucketRowsDeltaIndicesRoundTrip(t *testing.T) {
	indices := []int{3, 10, 11, 500, 501, 502, 90000}
	const dim = 4
	rng := rand.New(rand.NewSource(35))
	rows := make([]float64, len(indices)*dim)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	rec := AppendBucketRows(nil, EmbedBucketKind, indices, dim, rows)
	if fixed := 1 + 2 + 4*len(indices) + 8*len(rows); len(rec) >= fixed {
		t.Fatalf("record is %d bytes, no smaller than %d with fixed 4-byte indices", len(rec), fixed)
	}
	_, gotIdx, _, gotRows, err := ParseBucketRows(rec)
	if err != nil || !slices.Equal(gotIdx, indices) || !slices.Equal(gotRows, rows) {
		t.Fatalf("round trip: %v, %v (%v)", gotIdx, gotRows, err)
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, _, _, _, err := ParseBucketRows(rec[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestParseEmbedBucketRejectsMalformed walks the failure surface:
// wrong kind, truncation at every boundary, declared shapes that do not
// match the payload, indices outside int32, and trailing garbage.
func TestParseEmbedBucketRejectsMalformed(t *testing.T) {
	good := AppendBucketRows(nil, RawBucketKind, []int{4, 9}, 3, []float64{1, 2, 3, 4, 5, 6})
	if _, _, _, _, err := ParseBucketRows(good); err != nil {
		t.Fatalf("control record: %v", err)
	}
	cases := map[string][]byte{
		"empty":           nil,
		"wrong kind":      append([]byte{'S'}, good[1:]...),
		"header only":     good[:1],
		"short counts":    good[:2],
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte(nil), good...), 0),
		"zero points":     AppendBucketRows(nil, RawBucketKind, nil, 3, nil),
		"zero dim":        AppendBucketRows(nil, RawBucketKind, []int{1}, 0, nil),
		"negative index":  AppendBucketRows(nil, RawBucketKind, []int{-1}, 1, []float64{0}),
		"index > int32":   AppendBucketRows(nil, RawBucketKind, []int{math.MaxInt32 + 1}, 1, []float64{0}),
		"count lies":      append([]byte{RawBucketKind, 0xff, 0xff, 0xff, 0x0f, 3}, good[3:]...),
		"shape > payload": {EmbedBucketKind, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x3f, 0, 0},
	}
	for name, buf := range cases {
		if _, _, _, _, err := ParseBucketRows(buf); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// FuzzParseEmbedBucket drives the bucket record decoder over arbitrary
// bytes; a nil error must imply internally consistent shapes.
func FuzzParseEmbedBucket(f *testing.F) {
	f.Add(AppendBucketRows(nil, EmbedBucketKind, []int{1, 2}, 2, []float64{1, 2, 3, 4}))
	f.Add(AppendBucketRows(nil, RawBucketKind, []int{9, 2}, 2, []float64{1, 2, 3, 4}))
	f.Add([]byte{EmbedBucketKind, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, idx, dim, rows, err := ParseBucketRows(data)
		if err != nil {
			return
		}
		if dim <= 0 || len(idx) == 0 || len(rows) != len(idx)*dim {
			t.Fatalf("accepted inconsistent bucket: %d indices, dim %d, %d row values",
				len(idx), dim, len(rows))
		}
		if kind != RawBucketKind && kind != EmbedBucketKind {
			t.Fatalf("accepted kind %q", kind)
		}
	})
}
