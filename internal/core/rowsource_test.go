package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
)

// FuzzRowSourcesAgree holds Run's two MapReduce routes to one answer for
// "which rows does this reference name". On the resident-points route
// the driver expands a reference into the 'B' record its reducer
// decodes; on the shard route the worker reads the rows itself. Through
// the worker side (bucketShape and openBucket for a stage-2 index list
// or a block of consecutive rows; on the shard route, eachRow for a
// block as a stage-1 row range) both must deliver the matrix's
// (index, row) bits, or both must refuse the reference. Only the shard
// route has stage-1 records (the points route hashes in the driver);
// taken in order, they must be every row. One input picks N ≤ 3 000,
// the width, the rows per shard, a block [start, start+length) and a
// sorted index list (each byte a delta); a block or list past the last
// row, and the list with its last byte cut, are malformed.
func FuzzRowSourcesAgree(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint16(0), uint16(0), uint16(0), []byte{0})
	f.Add(uint16(2998), uint8(2), uint16(699), uint16(1000), uint16(1099), []byte{5, 1, 1, 0, 200, 3, 250, 250, 250})
	f.Add(uint16(1499), uint8(15), uint16(1023), uint16(1400), uint16(199), []byte{255, 255, 255, 255, 255, 255})
	f.Add(uint16(2047), uint8(7), uint16(1023), uint16(1024), uint16(1023), []byte{0, 1, 1, 1, 127, 128, 1})
	f.Add(uint16(9), uint8(3), uint16(2), uint16(9), uint16(0), []byte{9, 1})
	f.Fuzz(func(t *testing.T, nIn uint16, widthIn uint8, perIn, startIn, lengthIn uint16, deltas []byte) {
		n := 1 + int(nIn)%3000
		width := 1 + int(widthIn)%16
		per := 1 + int(perIn)%n
		start, length := int(startIn)%(n+8), 1+int(lengthIn)%n
		if len(deltas) == 0 {
			deltas = []byte{0}
		}
		if len(deltas) > 4000 {
			deltas = deltas[:4000]
		}
		ids := make([]int, len(deltas))
		for i, d := range deltas {
			ids[i] = int(d)
			if i > 0 {
				ids[i] += ids[i-1]
			}
		}

		pts := matrix.NewDense(n, width)
		for i := range pts.Data() {
			pts.Data()[i] = float64(i%97)*1.25 - 40
			if i%13 == 5 {
				pts.Data()[i] = math.Copysign(0, -1)
			}
		}
		dir := writeShardDir(t, pts, per)
		t.Cleanup(func() {
			if v, ok := shardReaders.LoadAndDelete(dir); ok {
				_ = v.(*shard.Reader).Close() // a read-only handle
			}
		})
		stage2 := newClusterJob(&rowSource{points: pts}, nil).Expand
		carried := &rowSource{} // a worker's record-carried source
		sharded, err := openShardRows(dir)
		if err != nil {
			t.Fatal(err)
		}

		// expand is the driver's half of the points route: the frame bytes
		// a reference becomes, exactly as long as the dispatch sized them.
		expand := func(x mapreduce.Expander, ref []byte) ([]byte, error) {
			var buf bytes.Buffer
			if err := x.Expand(&buf, ref); err != nil {
				return nil, err
			}
			if buf.Len() != x.Len(ref) {
				t.Fatalf("reference expanded to %d bytes, sized at %d", buf.Len(), x.Len(ref))
			}
			return buf.Bytes(), nil
		}
		type rows struct {
			ids  []int
			bits []uint64
		}
		add := func(r *rows, idx int, row []float64) {
			r.ids = append(r.ids, idx)
			for _, v := range row {
				r.bits = append(r.bits, math.Float64bits(v))
			}
		}
		want := func(ids []int) rows {
			var r rows
			for _, idx := range ids {
				add(&r, idx, pts.Row(idx))
			}
			return r
		}
		each := func(eachRow func([]byte, func(int, []float64) error) error, value []byte, r *rows) error {
			return eachRow(value, func(idx int, row []float64) error {
				if len(row) != width {
					t.Fatalf("row %d has %d values, want %d", idx, len(row), width)
				}
				add(r, idx, row)
				return nil
			})
		}
		open := func(shape func([]byte) (int, int, error), openBucket func([]byte, []float64) (bucket, error), value []byte, wantN int) (rows, error) {
			ni, dim, err := shape(value)
			if err != nil {
				return rows{}, err
			}
			if ni != wantN || dim != width {
				t.Fatalf("bucket shaped %d x %d, want %d x %d", ni, dim, wantN, width)
			}
			b, err := openBucket(value, make([]float64, ni*dim))
			if err != nil {
				return rows{}, err
			}
			var r rows
			for pos, p := range b.rows {
				add(&r, b.ids[pos], b.points.Row(p))
			}
			return r, nil
		}
		agree := func(what string, wellFormed bool, viaPoints rows, pointsErr error, viaShards rows, shardsErr error, expect rows) {
			t.Helper()
			if !wellFormed {
				if pointsErr == nil || shardsErr == nil {
					t.Fatalf("%s: malformed reference accepted (points route: %v, shard route: %v)", what, pointsErr, shardsErr)
				}
				return
			}
			if pointsErr != nil || shardsErr != nil {
				t.Fatalf("%s: refused (points route: %v, shard route: %v)", what, pointsErr, shardsErr)
			}
			for route, got := range map[string]rows{"points": viaPoints, "shard": viaShards} {
				if !slices.Equal(got.ids, expect.ids) || !slices.Equal(got.bits, expect.bits) {
					t.Fatalf("%s: the %s route delivered rows %v, want %v (or their bits differ)", what, route, got.ids, expect.ids)
				}
			}
		}

		// Every stage-1 input record of the shard route, in order, is
		// every row.
		var viaShards rows
		for _, rec := range sharded.lshInput() {
			if err := each(sharded.eachRow, rec.Value, &viaShards); err != nil {
				t.Fatalf("shard stage-1 record %s: %v", rec.Key, err)
			}
		}
		if all := want(rowSpan(0, n)); !slices.Equal(viaShards.ids, all.ids) || !slices.Equal(viaShards.bits, all.bits) {
			t.Fatalf("the shard route's stage-1 records delivered rows %v, want every row", viaShards.ids)
		}

		// One block of consecutive rows.
		block := rowSpan(start, length)
		var viaPoints rows
		viaShards = rows{}
		frame, pointsErr := expand(stage2, encodeIndices(block))
		if pointsErr == nil {
			viaPoints, pointsErr = open(carried.bucketShape, carried.openBucket, frame, length)
		}
		shardsErr := each(sharded.eachRow, encodeRowRange(start, length), &viaShards)
		inRange := start+length <= n
		agree("block", inRange, viaPoints, pointsErr, viaShards, shardsErr, want(block[:max(0, min(length, n-start))]))

		// One bucket's index list, and the same list cut short.
		inRange = ids[len(ids)-1] < n
		list := encodeIndices(ids)
		frame, pointsErr = expand(stage2, list)
		if pointsErr == nil {
			viaPoints, pointsErr = open(carried.bucketShape, carried.openBucket, frame, len(ids))
		}
		viaShards, shardsErr = open(sharded.bucketShape, sharded.openBucket, list, len(ids))
		var expect rows
		if inRange {
			expect = want(ids)
		}
		agree("index list", inRange, viaPoints, pointsErr, viaShards, shardsErr, expect)

		cut := list[:len(list)-1]
		frame, pointsErr = expand(stage2, cut)
		if pointsErr == nil {
			_, pointsErr = open(carried.bucketShape, carried.openBucket, frame, len(ids))
		}
		b, shardsErr := sharded.openBucket(cut, make([]float64, len(ids)*width))
		if pointsErr == nil || shardsErr == nil {
			t.Fatalf("a truncated index list was accepted (points route: %v, shard route: %v, %d rows)", pointsErr, shardsErr, len(b.ids))
		}
	})
}
