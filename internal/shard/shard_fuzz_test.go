package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzShardReads generates a shard layout and a list of row ranges and
// holds every read path to ReadRow, the one-row oracle. In range,
// ReadRange, ReadRowsInto and Stream must return the oracle's bits, and
// ReadRange and Stream must meter 8·cols bytes per row and one ReadOp
// per shard touched. Out of range, each must fail without reading, and
// Stream must fail before its first callback. Last, one byte of one
// shard's header is flipped: Open must reject the set or return a
// reader whose row and column counts account for every file byte.
func FuzzShardReads(f *testing.F) {
	f.Add(uint16(50), uint8(3), uint8(7), []byte{0, 0, 10, 0, 5, 0, 40, 0, 49, 0, 2, 0}, uint8(16), uint8(1))
	f.Add(uint16(299), uint8(5), uint8(63), []byte{0, 0, 44, 1, 1, 0, 255, 255}, uint8(24), uint8(0x80))
	f.Add(uint16(0), uint8(0), uint8(0), []byte{0, 0, 1, 0, 1, 0, 0, 0}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, rows uint16, cols, perShard uint8, reqs []byte, hdrAt, hdrXor uint8) {
		n, c, per := 1+int(rows)%300, 1+int(cols)%6, 1+int(perShard)%64
		dir := t.TempDir()
		m := writeMatrix(t, dir, n, c, per)
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			row, err := r.ReadRow(i, nil)
			if err != nil {
				t.Fatalf("ReadRow(%d): %v", i, err)
			}
			if !sameBits(row, m[i]) {
				t.Fatalf("ReadRow(%d) = %v, want %v", i, row, m[i])
			}
		}

		// Each request is four bytes: start and count, each in [-1, n+1].
		var gather, inRange []int
		for ; len(reqs) >= 4; reqs = reqs[4:] {
			start := int(binary.LittleEndian.Uint16(reqs))%(n+3) - 1
			count := int(binary.LittleEndian.Uint16(reqs[2:]))%(n+3) - 1
			checkRangeReads(t, r, m, per, start, count)
			gather = append(gather, start)
			if start >= 0 && start < n {
				inRange = append(inRange, start)
			}
		}
		got := make([][]float64, len(inRange))
		if err := r.ReadRowsInto(inRange, func(pos int) []float64 {
			got[pos] = make([]float64, c)
			return got[pos]
		}); err != nil {
			t.Fatalf("ReadRowsInto(%v): %v", inRange, err)
		}
		for pos, i := range inRange {
			if !sameBits(got[pos], m[i]) {
				t.Fatalf("ReadRowsInto: row %d = %v, want %v", i, got[pos], m[i])
			}
		}
		if len(gather) != len(inRange) {
			if err := r.ReadRowsInto(gather, func(int) []float64 { return make([]float64, c) }); err == nil {
				t.Fatalf("ReadRowsInto(%v) of %d rows succeeded", gather, n)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		shards := (n + per - 1) / per
		name := filepath.Join(dir, fmt.Sprintf("shard-%06d.dshd", int(hdrAt/headerSize)%shards))
		flipByte(t, name, int64(hdrAt%headerSize), hdrXor)
		r, err = Open(dir)
		if err != nil {
			return
		}
		defer r.Close()
		var size int64
		for s := range shards {
			st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%06d.dshd", s)))
			if err != nil {
				t.Fatal(err)
			}
			size += st.Size()
		}
		if want := int64(shards)*headerSize + 8*int64(r.Rows())*int64(r.Cols()); size != want {
			t.Fatalf("flipped header byte %d by %#x: Open gave %d×%d for %d file bytes", hdrAt%headerSize, hdrXor, r.Rows(), r.Cols(), size)
		}
	})
}

// checkRangeReads runs ReadRange and Stream over [start, start+count)
// and checks their rows and meter deltas against the matrix m, which is
// sharded at per rows a shard.
func checkRangeReads(t *testing.T, r *Reader, m [][]float64, per, start, count int) {
	t.Helper()
	n, c := r.Rows(), r.Cols()
	ok := start >= 0 && count >= 0 && start+count <= n
	wantBytes, wantOps := int64(0), int64(0)
	if ok && count > 0 {
		wantBytes = 8 * int64(c) * int64(count)
		wantOps = int64((start+count-1)/per - start/per + 1)
	}
	metered := func(what string, read func() error) {
		t.Helper()
		bytes, ops := r.BytesRead(), r.ReadOps()
		err := read()
		if ok && err != nil {
			t.Fatalf("%s(%d,%d) of %d rows: %v", what, start, count, n, err)
		}
		if !ok && err == nil {
			t.Fatalf("%s(%d,%d) of %d rows succeeded", what, start, count, n)
		}
		if db, do := r.BytesRead()-bytes, r.ReadOps()-ops; db != wantBytes || do != wantOps {
			t.Fatalf("%s(%d,%d): read %d bytes in %d ops, want %d in %d", what, start, count, db, do, wantBytes, wantOps)
		}
	}

	dst := make([]float64, max(count, 0)*c)
	metered("ReadRange", func() error { return r.ReadRange(start, count, dst) })
	if ok {
		for k := range count {
			if !sameBits(dst[k*c:(k+1)*c], m[start+k]) {
				t.Fatalf("ReadRange(%d,%d): row %d differs", start, count, start+k)
			}
		}
	}

	if count == 0 {
		// An empty stream is a no-op wherever it starts.
		ok, wantBytes, wantOps = true, 0, 0
	}
	next := start
	metered("Stream", func() error {
		return r.Stream(start, count, func(i int, row []float64) error {
			if !ok {
				t.Fatalf("Stream(%d,%d) of %d rows called fn", start, count, n)
			}
			if i != next || !sameBits(row, m[i]) {
				t.Fatalf("Stream(%d,%d): visited row %d (want %d) = %v, want %v", start, count, i, next, row, m[next])
			}
			next++
			return nil
		})
	})
	if ok && next != start+count {
		t.Fatalf("Stream(%d,%d) visited rows [%d,%d)", start, count, start, next)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// flipByte XORs the byte at off in the named file with x.
func flipByte(t *testing.T, name string, off int64, x byte) {
	t.Helper()
	f, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= x
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
