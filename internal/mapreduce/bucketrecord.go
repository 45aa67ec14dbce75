package mapreduce

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// bucketKind opens every bucket record: the format marker of a DASC
// deployment whose rows travel inside the records (workers share neither
// memory nor files with the driver). The rows are always the input
// vectors; whatever a solve derives from them is derived where it runs.
const bucketKind = 'B'

// BucketRecordLen is the length of a bucket record of n points at dim
// columns whose index deltas take deltaBytes — which a caller holding
// the indices already varint-encoded reads off their encoding.
func BucketRecordLen(n, dim, deltaBytes int) int {
	return 1 + uvarintLen(uint64(n)) + uvarintLen(uint64(dim)) + deltaBytes + 8*n*dim
}

// WriteBucketRows writes one bucket record to w:
//
//	'B' │ uvarint n │ uvarint dim │ n × zigzag-varint index delta │
//	n·dim × float64 LE rows (row-major)
//
// Deltas are taken over the indices as given (bucket indices are sorted
// ascending, so deltas are small and positive); zigzag keeps any order
// decodable. Row i, taken from row(i) as the record is written, must
// hold dim values; the codec is pure layout and does not validate
// semantics beyond that.
func WriteBucketRows(w io.Writer, indices []int, dim int, row func(i int) []float64) error {
	deltas := make([]byte, 0, len(indices))
	prev := 0
	for _, idx := range indices {
		deltas = binary.AppendVarint(deltas, int64(idx-prev))
		prev = idx
	}
	return WriteBucketRecord(w, len(indices), dim, deltas, row)
}

// WriteBucketRecord is WriteBucketRows for a caller that holds the n
// index deltas already encoded: deltas is copied into the record as it
// is, and row is called for i = 0, 1, …, n-1, in that order. The record
// is never whole in memory: only one row at a time is.
func WriteBucketRecord(w io.Writer, n, dim int, deltas []byte, row func(i int) []float64) error {
	out := append(make([]byte, 0, max(1+2*binary.MaxVarintLen64, 8*dim)), bucketKind)
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(dim))
	if _, err := w.Write(out); err != nil {
		return err
	}
	if _, err := w.Write(deltas); err != nil {
		return err
	}
	for i := range n {
		out = out[:0]
		for _, v := range row(i) {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
	}
	return nil
}

// bucketLayout validates a bucket record — it must open with 'B', the
// shape is checked against the bytes that actually arrived, every index
// must fit a non-negative int32, and the float payload must match the
// declared shape exactly — and returns its shape and its index-delta
// and float sections. It allocates nothing.
func bucketLayout(buf []byte) (n, dim int, deltas, floats []byte, err error) {
	fail := func(format string, args ...any) (int, int, []byte, []byte, error) {
		return 0, 0, nil, nil, fmt.Errorf("mapreduce: bucket record: "+format, args...)
	}
	if len(buf) == 0 || buf[0] != bucketKind {
		return 0, 0, nil, nil, errors.New("mapreduce: not a bucket record")
	}
	b := buf[1:]
	nu, w := binary.Uvarint(b)
	if w <= 0 {
		return fail("bad point count")
	}
	b = b[w:]
	du, w := binary.Uvarint(b)
	if w <= 0 {
		return fail("bad dimension")
	}
	b = b[w:]
	if nu == 0 || du == 0 || nu > maxFrameBody/4 || du > maxFrameBody/8 {
		return fail("shape %d x %d out of range", nu, du)
	}
	n, dim = int(nu), int(du)
	// Each index delta costs at least one byte, so the record must hold
	// n delta bytes plus the full float payload.
	if need := n + 8*n*dim; len(b) < need || need/n != 1+8*dim {
		return fail("%d payload bytes for %d x %d", len(b), n, dim)
	}
	deltas = b
	prev := int64(0)
	for i := 0; i < n; i++ {
		delta, w := binary.Varint(b)
		if w <= 0 {
			return fail("bad index delta")
		}
		b = b[w:]
		prev += delta
		if prev < 0 || prev > math.MaxInt32 {
			return fail("index %d out of range", prev)
		}
	}
	if len(b) != 8*n*dim {
		return fail("%d float bytes for %d x %d", len(b), n, dim)
	}
	return n, dim, deltas[:len(deltas)-len(b)], b, nil
}

// BucketShape validates a bucket record and returns its point count
// and dimension.
func BucketShape(rec []byte) (n, dim int, err error) {
	n, dim, _, _, err = bucketLayout(rec)
	return n, dim, err
}

// EachBucketRow decodes a bucket record one row at a time: once the
// whole record has validated (it accepts exactly what BucketShape
// accepts), fn is called with each point's index and row, in record
// order. The row is one dim-long buffer, refilled for every call, so it
// is valid only during the call; nothing is allocated per row.
func EachBucketRow(rec []byte, fn func(idx int, row []float64) error) error {
	n, dim, deltas, floats, err := bucketLayout(rec)
	if err != nil {
		return err
	}
	row := make([]float64, dim)
	idx := int64(0)
	for i := 0; i < n; i++ {
		delta, w := binary.Varint(deltas)
		deltas = deltas[w:]
		idx += delta
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(floats[8*j:]))
		}
		floats = floats[8*dim:]
		if err := fn(int(idx), row); err != nil {
			return err
		}
	}
	return nil
}
