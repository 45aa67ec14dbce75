package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBufferedWriterRoundTrip pins the buffered Writer at its edges: a
// shard whose rows take several buffer fills, one row per shard (a
// Reset, a header and a seal for every row), and a partial last shard.
// Each file's header must carry its own start and count, and every row
// must read back bit for bit.
func TestBufferedWriterRoundTrip(t *testing.T) {
	for _, tc := range []struct{ rows, cols, per int }{
		{3*writeBufBytes/(8*16) + 5, 16, 0}, // one shard, > 3 buffer fills
		{9, 3, 1},                           // a shard per row
		{2*writeBufBytes/(8*11) + 7, 11, writeBufBytes / (8 * 11)}, // rows straddle the buffer edge; partial last shard
	} {
		dir := t.TempDir()
		m := writeMatrix(t, dir, tc.rows, tc.cols, tc.per)
		per := tc.per
		if per <= 0 {
			per = DefaultRowsPerShard
		}
		for s, start := 0, 0; start < tc.rows; s, start = s+1, start+per {
			hdr := make([]byte, headerSize)
			f, err := os.Open(filepath.Join(dir, fmt.Sprintf("shard-%06d.dshd", s)))
			if err != nil {
				t.Fatalf("%+v: %v", tc, err)
			}
			_, err = f.ReadAt(hdr, 0)
			if err := errors.Join(err, f.Close()); err != nil {
				t.Fatalf("%+v: shard %d header: %v", tc, s, err)
			}
			gotStart := binary.LittleEndian.Uint64(hdr[8:])
			gotRows := binary.LittleEndian.Uint64(hdr[16:])
			if want := min(per, tc.rows-start); gotStart != uint64(start) || gotRows != uint64(want) {
				t.Fatalf("%+v: shard %d header says start %d rows %d, want %d and %d", tc, s, gotStart, gotRows, start, want)
			}
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("%+v: Open: %v", tc, err)
		}
		if r.Rows() != tc.rows {
			t.Fatalf("%+v: %d rows", tc, r.Rows())
		}
		for i := range m {
			row, err := r.ReadRow(i, nil)
			if err != nil {
				t.Fatalf("%+v: ReadRow(%d): %v", tc, i, err)
			}
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(m[i][j]) {
					t.Fatalf("%+v: row %d col %d: got %v want %v", tc, i, j, v, m[i][j])
				}
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriterStaysFailed checks a Writer whose file stops taking bytes:
// the failure surfaces once the buffer has to drain, every later Append
// and the Close keep returning an error, and the shard left behind — its
// header still says zero rows — is refused by Open.
func TestWriterStaysFailed(t *testing.T) {
	for _, mode := range []string{"write", "seal"} {
		dir := t.TempDir()
		rowsPerShard := 0
		if mode == "seal" {
			rowsPerShard = 4 // the fourth Append seals, and the flush inside it fails
		}
		w, err := NewWriter(dir, 8, rowsPerShard)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, 8)
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
		if err := w.f.Close(); err != nil { // every later write to the shard fails
			t.Fatal(err)
		}
		var first error
		n := 1
		for ; first == nil && n < 2*writeBufBytes; n++ {
			first = w.Append(row)
		}
		if first == nil || !errors.Is(first, fs.ErrClosed) {
			t.Fatalf("%s: err = %v after %d rows, want the closed-file error", mode, first, n)
		}
		if mode == "seal" && (n != 4 || !strings.Contains(first.Error(), "seal shard 0")) {
			t.Fatalf("seal: err = %v at row %d, want shard 0's seal error at row 4", first, n)
		}
		if err := w.Append(row); !errors.Is(err, fs.ErrClosed) {
			t.Fatalf("%s: Append after the failure = %v", mode, err)
		}
		if err := w.Close(); !errors.Is(err, fs.ErrClosed) {
			t.Fatalf("%s: Close after the failure = %v", mode, err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatalf("%s: Open accepted the unsealed shard", mode)
		}
	}
}

// TestReadRangeMatchesReadRow checks the window read against per-row
// reads at every start and several lengths — inside a shard, across one
// boundary, across several, up to the last row — and that it costs one
// ReadAt per shard touched.
func TestReadRangeMatchesReadRow(t *testing.T) {
	dir := t.TempDir()
	const rows, cols, per = 53, 5, 8
	m := writeMatrix(t, dir, rows, cols, per)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	dst := make([]float64, rows*cols)
	for _, count := range []int{0, 1, 3, per, per + 1, 3*per + 2, rows} {
		for start := 0; start+count <= rows; start++ {
			for i := range dst {
				dst[i] = math.NaN()
			}
			opsBefore, bytesBefore := r.ReadOps(), r.BytesRead()
			if err := r.ReadRange(start, count, dst); err != nil {
				t.Fatalf("ReadRange(%d, %d): %v", start, count, err)
			}
			for k := 0; k < count; k++ {
				for j := 0; j < cols; j++ {
					if got, want := dst[k*cols+j], m[start+k][j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("ReadRange(%d, %d): row %d col %d = %v, want %v", start, count, start+k, j, got, want)
					}
				}
			}
			if count*cols < len(dst) && !math.IsNaN(dst[count*cols]) {
				t.Fatalf("ReadRange(%d, %d) wrote past its rows", start, count)
			}
			wantOps := 0
			if count > 0 {
				wantOps = (start+count-1)/per - start/per + 1
			}
			if ops := r.ReadOps() - opsBefore; ops != int64(wantOps) {
				t.Fatalf("ReadRange(%d, %d) took %d reads, want %d (one per shard touched)", start, count, ops, wantOps)
			}
			if b := r.BytesRead() - bytesBefore; b != int64(count*cols*8) {
				t.Fatalf("ReadRange(%d, %d) metered %d bytes, want %d", start, count, b, count*cols*8)
			}
		}
	}
	for _, bad := range [][2]int{{-1, 2}, {rows, 1}, {rows - 2, 3}, {0, rows + 1}, {4, -1}} {
		if err := r.ReadRange(bad[0], bad[1], dst); err == nil {
			t.Errorf("ReadRange(%d, %d) accepted on %d rows", bad[0], bad[1], rows)
		}
	}
	if err := r.ReadRange(0, 4, dst[:4*cols-1]); err == nil {
		t.Error("ReadRange accepted a destination one value short")
	}
}

// BenchmarkShardWrite measures the Writer at the size of the
// benchmark's mix-sharded-tcp set-up: 131 072 rows of 16 columns.
func BenchmarkShardWrite(b *testing.B) {
	const rows, cols = 131072, 16
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, cols)
	for j := range row {
		row[j] = rng.NormFloat64()
	}
	base := b.TempDir()
	b.SetBytes(rows * cols * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(base, "w")
		w, err := NewWriter(dir, cols, 0)
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			if err := w.Append(row); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
