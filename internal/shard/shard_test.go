package shard

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// writeMatrix shards a deterministic rows×cols matrix and returns it.
func writeMatrix(t testing.TB, dir string, rows, cols, perShard int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	writeRows(t, dir, m, cols, perShard)
	return m
}

// writeRows shards the given rows through one Writer.
func writeRows(t testing.TB, dir string, rows [][]float64, cols, perShard int) {
	t.Helper()
	w, err := NewWriter(dir, cols, perShard)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, tc := range []struct{ rows, cols, per int }{
		{1, 1, 1},
		{10, 3, 4},  // partial final shard
		{12, 3, 4},  // exact multiple
		{7, 5, 100}, // single shard
	} {
		dir := t.TempDir()
		m := writeMatrix(t, dir, tc.rows, tc.cols, tc.per)
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("%+v: Open: %v", tc, err)
		}
		if r.Rows() != tc.rows || r.Cols() != tc.cols {
			t.Fatalf("%+v: got %d×%d", tc, r.Rows(), r.Cols())
		}
		wantShards := (tc.rows + tc.per - 1) / tc.per
		if tc.per > tc.rows {
			wantShards = 1
		}
		if got := len(r.Ranges()); got != wantShards {
			t.Fatalf("%+v: %d shards, want %d", tc, got, wantShards)
		}
		for i := 0; i < tc.rows; i++ {
			row, err := r.ReadRow(i, nil)
			if err != nil {
				t.Fatalf("%+v: ReadRow(%d): %v", tc, i, err)
			}
			for j, v := range row {
				if v != m[i][j] {
					t.Fatalf("%+v: row %d col %d: got %v want %v", tc, i, j, v, m[i][j])
				}
			}
		}
		if r.BytesRead() != int64(tc.rows)*int64(tc.cols)*8 {
			t.Fatalf("%+v: BytesRead %d", tc, r.BytesRead())
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%+v: Close: %v", tc, err)
		}
	}
}

func TestReadRowsGather(t *testing.T) {
	dir := t.TempDir()
	m := writeMatrix(t, dir, 20, 4, 6)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	idx := []int{19, 0, 7, 7, 13}
	rows := make([][]float64, len(idx))
	if err := r.ReadRowsInto(idx, func(pos int) []float64 {
		rows[pos] = make([]float64, 4)
		return rows[pos]
	}); err != nil {
		t.Fatal(err)
	}
	for k, i := range idx {
		for j := range rows[k] {
			if rows[k][j] != m[i][j] {
				t.Fatalf("gathered row %d differs at col %d", i, j)
			}
		}
	}
	if err := r.ReadRowsInto([]int{20}, func(int) []float64 { return make([]float64, 4) }); err == nil {
		t.Fatal("out-of-range gather succeeded")
	}
}

func TestStreamMatchesReadRow(t *testing.T) {
	dir := t.TempDir()
	m := writeMatrix(t, dir, 15, 3, 4)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	var visited []int
	err = r.Stream(3, 9, func(i int, row []float64) error {
		visited = append(visited, i)
		for j, v := range row {
			if v != m[i][j] {
				t.Fatalf("stream row %d col %d mismatch", i, j)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 9 || visited[0] != 3 || visited[8] != 11 {
		t.Fatalf("visited %v", visited)
	}
	if err := r.Stream(10, 10, func(int, []float64) error { return nil }); err == nil {
		t.Fatal("out-of-range stream succeeded")
	}
}

func TestConcurrentReads(t *testing.T) {
	dir := t.TempDir()
	m := writeMatrix(t, dir, 64, 8, 16)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]float64, 8)
			for i := 0; i < 64; i++ {
				row, err := r.ReadRow((i+g*7)%64, buf)
				if err != nil {
					t.Errorf("ReadRow: %v", err)
					return
				}
				want := m[(i+g*7)%64]
				for j := range row {
					if row[j] != want[j] {
						t.Errorf("goroutine %d: row mismatch", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestOpenRejectsCorruption(t *testing.T) {
	newDir := func() string {
		dir := t.TempDir()
		writeMatrix(t, dir, 10, 2, 4)
		return dir
	}
	firstShard := func(dir string) string {
		return filepath.Join(dir, "shard-000000.dshd")
	}

	t.Run("empty dir", func(t *testing.T) {
		if _, err := Open(t.TempDir()); err == nil {
			t.Fatal("Open on empty dir succeeded")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		dir := newDir()
		f, err := os.OpenFile(firstShard(dir), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("XXXX"), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		dir := newDir()
		st, err := os.Stat(firstShard(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(firstShard(dir), st.Size()-8); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("truncated shard accepted")
		}
	})
	t.Run("gap in row ranges", func(t *testing.T) {
		dir := newDir()
		// Shift shard 1's startRow forward by one: creates a gap.
		name := filepath.Join(dir, "shard-000001.dshd")
		f, err := os.OpenFile(name, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		if _, err := f.ReadAt(b[:], 8); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(b[:], binary.LittleEndian.Uint64(b[:])+1)
		if _, err := f.WriteAt(b[:], 8); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("gapped shard set accepted")
		}
	})
	t.Run("mixed cols", func(t *testing.T) {
		dir := newDir()
		name := filepath.Join(dir, "shard-000001.dshd")
		f, err := os.OpenFile(name, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		// cols 2 → 1 and rows 2 → 4 keeps the size equation consistent
		// (4 rows × 1 col == 2 rows × 2 cols) so only the col check fires.
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], 4)
		if _, err := f.WriteAt(b[:], 16); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(b[:], 1)
		if _, err := f.WriteAt(b[:], 24); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("mixed-cols shard set accepted")
		}
	})
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(t.TempDir(), 0, 4); err == nil {
		t.Fatal("zero cols accepted")
	}
	w, err := NewWriter(t.TempDir(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]float64{1, 2}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := w.Append([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 1 {
		t.Fatalf("Rows() = %d", w.Rows())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]float64{1, 2, 3}); err == nil {
		t.Fatal("append after Close accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
}

func TestSpecialFloatValues(t *testing.T) {
	dir := t.TempDir()
	rows := [][]float64{{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}}
	writeRows(t, dir, rows, 4, 0)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	got, err := r.ReadRow(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range rows[0] {
		if math.Float64bits(got[j]) != math.Float64bits(rows[0][j]) {
			t.Fatalf("col %d: bits differ", j)
		}
	}
}

// BenchmarkShardStream measures the sequential streaming read path the
// sharded LSH mappers use, and BenchmarkShardGather the random
// demand-hydration path of the bucket reducers.
func BenchmarkShardStream(b *testing.B) {
	dir := b.TempDir()
	rows := writeMatrix(b, dir, 4096, 16, 1024)
	r, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		if err := r.Stream(0, len(rows), func(_ int, row []float64) error {
			sum += row[0]
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardGather(b *testing.B) {
	dir := b.TempDir()
	rows := writeMatrix(b, dir, 4096, 16, 1024)
	r, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(2))
	indices := make([]int, 512)
	for i := range indices {
		indices[i] = rng.Intn(len(rows))
	}
	out := make([]float64, len(indices)*16)
	dst := func(pos int) []float64 { return out[pos*16 : (pos+1)*16] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ReadRowsInto(indices, dst); err != nil {
			b.Fatal(err)
		}
	}
}
