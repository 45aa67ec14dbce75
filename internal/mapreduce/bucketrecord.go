package mapreduce

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// bucketKind opens every bucket record: the format marker of a DASC
// deployment whose rows travel inside the records (workers share neither
// memory nor files with the driver). The rows are always the input
// vectors; whatever a solve derives from them is derived where it runs.
const bucketKind = 'B'

// AppendBucketRows appends one bucket record to dst and returns the
// extended slice:
//
//	'B' │ uvarint n │ uvarint dim │ n × zigzag-varint index delta │
//	n·dim × float64 LE rows (row-major)
//
// Deltas are taken over the indices as given (bucket indices are sorted
// ascending, so deltas are small and positive); zigzag keeps any order
// decodable. len(rows) must equal len(indices)*dim; the codec is pure
// layout and does not validate semantics beyond that.
func AppendBucketRows(dst []byte, indices []int, dim int, rows []float64) []byte {
	dst = append(dst, bucketKind)
	dst = binary.AppendUvarint(dst, uint64(len(indices)))
	dst = binary.AppendUvarint(dst, uint64(dim))
	prev := 0
	for _, idx := range indices {
		dst = binary.AppendVarint(dst, int64(idx-prev))
		prev = idx
	}
	for _, v := range rows {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// ParseBucketRows decodes a record produced by AppendBucketRows. The
// input is untrusted: it must open with 'B', the shape is validated
// against the bytes that actually arrived before any allocation, every
// index must fit a non-negative int32, and the float payload must match
// the declared shape exactly. The returned slices are freshly allocated
// and do not alias buf.
func ParseBucketRows(buf []byte) (indices []int, dim int, rows []float64, err error) {
	fail := func(format string, args ...any) ([]int, int, []float64, error) {
		return nil, 0, nil, fmt.Errorf("mapreduce: bucket record: "+format, args...)
	}
	if len(buf) == 0 || buf[0] != bucketKind {
		return nil, 0, nil, errors.New("mapreduce: not a bucket record")
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
	n, dim := int(nu), int(du)
	// Each index delta costs at least one byte, so the record must hold
	// n delta bytes plus the full float payload; checking against the
	// actual record length before allocating bounds both slices by the
	// bytes that really arrived.
	if need := n + 8*n*dim; len(b) < need || need/n != 1+8*dim {
		return fail("%d payload bytes for %d x %d", len(b), n, dim)
	}
	indices = make([]int, n)
	prev := int64(0)
	for i := range indices {
		delta, w := binary.Varint(b)
		if w <= 0 {
			return fail("bad index delta")
		}
		b = b[w:]
		prev += delta
		if prev < 0 || prev > math.MaxInt32 {
			return fail("index %d out of range", prev)
		}
		indices[i] = int(prev)
	}
	if len(b) != 8*n*dim {
		return fail("%d float bytes for %d x %d", len(b), n, dim)
	}
	rows = make([]float64, n*dim)
	for i := range rows {
		rows[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return indices, dim, rows, nil
}
