package mapreduce

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Bucket records: the stage-2 value of a DASC deployment whose rows
// travel inside the records (workers share neither memory nor files
// with the driver). One layout carries either form of a bucket's rows,
// told apart by the leading kind byte.
const (
	// RawBucketKind opens a record whose rows are the bucket's input
	// vectors.
	RawBucketKind = 'B'
	// EmbedBucketKind opens a record whose rows the driver already
	// pushed through the kernel feature map map-side: d′-dimensional
	// embedded rows instead of raw vectors.
	EmbedBucketKind = 'E'
)

// AppendBucketRows appends one bucket record to dst and returns the
// extended slice:
//
//	kind │ uvarint n │ uvarint dim │ n × zigzag-varint index delta │
//	n·dim × float64 LE rows (row-major)
//
// Deltas are taken over the indices as given (bucket indices are sorted
// ascending, so deltas are small and positive); zigzag keeps any order
// decodable. len(rows) must equal len(indices)*dim; the codec is pure
// layout and does not validate semantics beyond that.
func AppendBucketRows(dst []byte, kind byte, indices []int, dim int, rows []float64) []byte {
	dst = append(dst, kind)
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
// input is untrusted: the kind byte must be one of the two above, the
// shape is validated against the bytes that actually arrived before any
// allocation, every index must fit a non-negative int32, and the float
// payload must match the declared shape exactly. The returned slices
// are freshly allocated and do not alias buf.
func ParseBucketRows(buf []byte) (kind byte, indices []int, dim int, rows []float64, err error) {
	fail := func(format string, args ...any) (byte, []int, int, []float64, error) {
		return 0, nil, 0, nil, fmt.Errorf("mapreduce: bucket record: "+format, args...)
	}
	if len(buf) == 0 || (buf[0] != RawBucketKind && buf[0] != EmbedBucketKind) {
		return 0, nil, 0, nil, errors.New("mapreduce: not a bucket record")
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
	return buf[0], indices, dim, rows, nil
}
