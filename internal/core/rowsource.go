package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
)

// rowSource is where a MapReduce run's workers get row i, the one thing
// Run's two MapReduce routes disagree on. It decides by one bit, whether
// it holds a shard reader:
//
//	reader  stage 1                       stage-2 record  a reducer's rows
//	none    hashed in the driver, no job  index list      written into its task frame as a 'B' record by the driver (rowRefs)
//	set     one shard row range per task  index list      read from the shard files, by any process that can open them
//
// Either way the driver holds only these small records, and a frame is
// written only as its task is dispatched. The driver side (lshInput,
// expander) runs on a source Run builds; the mapper and reducer side
// (eachRow, bucketShape, openBucket) also on the source a worker process
// rebuilds from the job Conf (the factories in mapreduce.go).
type rowSource struct {
	// r is the shard reader, nil when rows travel in task frames; dir is
	// its directory, what a worker in another process rebuilds it from.
	r   *shard.Reader
	dir string
	// points is the driver's resident matrix, which the driver hashes and
	// rowRefs writes frames from: nil on a worker and on a shard-backed
	// source.
	points *matrix.Dense
}

// bucketOpener is what solveTask reads of a rowSource; tests substitute
// a spy through it.
type bucketOpener interface {
	bucketShape(value []byte) (n, dim int, err error)
	openBucket(value []byte, rows []float64) (bucket, error)
}

func init() {
	mapreduce.RegisterFactory("dasc-lsh", lshJobFromConf)
	mapreduce.RegisterFactory("dasc-cluster", clusterJobFromConf)
	// gob numbers a type when a process first encodes it, and a Conf
	// carries the numbers: encoding both confs here, in one order, keeps
	// a job's Conf, and so its task frames, the same bytes whichever job
	// a process runs first. An empty conf always encodes.
	_, _ = gobEncode(lshConf{})
	_, _ = gobEncode(solveConf{})
	// Workers ship this process-cumulative meter — the bytes every cached
	// reader has read — back on TCP results so a master in another
	// process can account our shard reads.
	mapreduce.SetShardMeter(func() (total int64) {
		shardReaders.Range(func(_, v any) bool {
			total += v.(*shard.Reader).BytesRead()
			return true
		})
		return total
	})
}

// rowSpan returns the row ids [start, start+n).
func rowSpan(start, n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = start + i
	}
	return all
}

// lshInput returns a shard-backed source's stage-1 input records: one
// shard row range each, and so per map task.
func (s *rowSource) lshInput() []mapreduce.Pair {
	ranges := s.r.Ranges()
	input := make([]mapreduce.Pair, len(ranges))
	for i, rg := range ranges {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: encodeRowRange(rg[0], rg[1]-rg[0])}
	}
	return input
}

// expander is stage 2's Job.Expand: rowRefs over the driver's points,
// or nil where workers find the rows themselves.
func (s *rowSource) expander() mapreduce.Expander {
	if s.points == nil {
		return nil
	}
	return rowRefs{s.points}
}

// eachRow calls fn once per row of a stage-1 input record, a shard row
// range streamed from the reader, in ascending row order, with a row
// valid only during the call.
func (s *rowSource) eachRow(value []byte, fn func(idx int, row []float64) error) error {
	start, count, err := decodeRowRange(value)
	if err != nil {
		return err
	}
	return s.r.Stream(start, count, fn)
}

// bucketShape reads a stage-2 value's point count and row width without
// touching its rows: a 'B' record's header, or an index list's count and
// the shard's width.
func (s *rowSource) bucketShape(value []byte) (n, dim int, err error) {
	if s.r == nil {
		return mapreduce.BucketShape(value)
	}
	n, _, err = indexCount(value)
	return n, s.r.Cols(), err
}

// openBucket decodes a stage-2 value into the bucket's rows, held in
// rows (at least n×dim floats, the caller's), which b.points aliases:
// the 'B' record's rows, or the index list's rows gathered from the
// shards. Index lists are sorted ascending, so the coalescing gather
// turns a bucket that lands inside one shard into a few large reads.
func (s *rowSource) openBucket(value []byte, rows []float64) (bucket, error) {
	var ids []int
	var dim int
	var err error
	if s.r == nil {
		// EachBucketRow validates the whole record before the first row.
		err = mapreduce.EachBucketRow(value, func(idx int, row []float64) error {
			if ids == nil {
				// The rows take 8·n·dim of the record's bytes.
				dim = len(row)
				ids = make([]int, 0, len(value)/(8*dim))
			}
			copy(rows[len(ids)*dim:], row)
			ids = append(ids, idx)
			return nil
		})
	} else if ids, err = decodeIndices(value); err == nil {
		dim = s.r.Cols()
		err = s.r.ReadRowsInto(ids, func(pos int) []float64 { return rows[pos*dim:] })
	}
	var pts *matrix.Dense
	if err == nil {
		pts, err = matrix.NewDenseData(len(ids), dim, rows[:len(ids)*dim])
	}
	if err != nil {
		return bucket{}, err
	}
	return bucket{points: pts, rows: rowSpan(0, len(ids)), ids: ids}, nil
}

// rowRefs is the record-carried route's mapreduce.Expander: it writes a
// stage-2 index list as the 'B' record of its rows, straight from the
// driver's matrix a row at a time. The list's bytes after its count are
// the record's delta section, so Len sizes the frame and Expand copies
// them into it without decoding them to indices.
type rowRefs struct{ points *matrix.Dense }

// Len is exact for a well-formed list; Expand reports a malformed one.
func (x rowRefs) Len(ref []byte) int {
	n, deltas, _ := indexCount(ref)
	return mapreduce.BucketRecordLen(n, x.points.Cols(), len(deltas))
}

func (x rowRefs) Expand(w io.Writer, ref []byte) error {
	n, deltas, err := indexCount(ref)
	if err == nil {
		err = eachIndex(n, deltas, int64(x.points.Rows()), func(int) {})
	}
	if err != nil {
		return err
	}
	idx, rest := 0, deltas // the row the next call names: the deltas are walked again in step
	return mapreduce.WriteBucketRecord(w, n, x.points.Cols(), deltas, func(int) []float64 {
		d, k := binary.Varint(rest)
		idx, rest = idx+int(d), rest[k:]
		return x.points.Row(idx)
	})
}

// indexCount reads an index list's count and its delta section without
// decoding the deltas; each delta takes at least a byte.
func indexCount(ref []byte) (count int, deltas []byte, err error) {
	c, w := binary.Uvarint(ref)
	if w <= 0 || c > uint64(len(ref)-w) {
		return 0, nil, fmt.Errorf("core: bad index list")
	}
	return int(c), ref[w:], nil
}

// eachIndex walks an index list's count deltas without allocating,
// calling fn with each index in turn: every index must be non-negative
// and below bound, and nothing may follow the last delta.
func eachIndex(count int, deltas []byte, bound int64, fn func(idx int)) error {
	idx := int64(0)
	for range count {
		d, k := binary.Varint(deltas)
		if k <= 0 {
			return fmt.Errorf("core: truncated index list")
		}
		deltas = deltas[k:]
		// idx is in [0, bound) before the add, so a wrap lands below zero.
		if idx += d; idx < 0 || idx >= bound {
			return fmt.Errorf("core: index %d out of range", idx)
		}
		fn(int(idx))
	}
	if len(deltas) != 0 {
		return fmt.Errorf("core: %d trailing bytes after index list", len(deltas))
	}
	return nil
}

// shardReaders caches one open shard.Reader per directory for the
// lifetime of the process — the HDFS-block-cache analogue. The readers
// are never closed (their handles die with the process, and every task
// of every job over the same input shares them); reads go through
// ReadAt, so one reader serves concurrent tasks.
var shardReaders sync.Map // dir -> *shard.Reader

// openShardRows returns the source over the process-wide reader for
// dir, opening it on first use. A racing open closes the loser. The
// driver's margin-ordered probing reads the same reader through a
// probeCursor.
func openShardRows(dir string) (*rowSource, error) {
	if v, ok := shardReaders.Load(dir); ok {
		return &rowSource{r: v.(*shard.Reader), dir: dir}, nil
	}
	r, err := shard.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("core: shard input: %w", err)
	}
	if v, loaded := shardReaders.LoadOrStore(dir, r); loaded {
		if cerr := r.Close(); cerr != nil {
			return nil, fmt.Errorf("core: shard input: %w", cerr)
		}
		r = v.(*shard.Reader)
	}
	return &rowSource{r: r, dir: dir}, nil
}

// shardIO is a reading of one reader's meters.
type shardIO struct{ bytes, ops, coalesced int64 }

// io reads the meters of a shard-backed source's reader, which Run takes
// the delta of around a run.
func (s *rowSource) io() shardIO {
	return shardIO{s.r.BytesRead(), s.r.ReadOps(), s.r.CoalescedReads()}
}

// encodeRowRange / decodeRowRange pack a shard-backed stage-1 input
// record: one half-open shard row range [start, start+count).
func encodeRowRange(start, count int) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], uint32(start))
	binary.LittleEndian.PutUint32(buf[4:], uint32(count))
	return buf
}

func decodeRowRange(buf []byte) (start, count int, err error) {
	if len(buf) != 8 {
		return 0, 0, fmt.Errorf("core: row range payload length %d", len(buf))
	}
	return int(binary.LittleEndian.Uint32(buf[0:])), int(binary.LittleEndian.Uint32(buf[4:])), nil
}

// probeWindowBytes sizes a probeCursor's window. A probing partition
// sweeps the rows in ascending order once per table, so any window makes
// the reads sequential; 64 KiB makes them few (one per ~750 rows of 11
// columns, where there used to be one per row). A window holding all
// 4 096 rows of the benchmark's corpus (with shard.Writer's and the
// corpus spool's buffers enlarged alongside) ran no faster and peaked
// 7 % higher in RSS, so this is a small constant rather than a knob.
const probeWindowBytes = 64 << 10

// probeCursor is the lsh.PointSource of one run's margin-ordered
// probing over a shard directory: Row serves from a window of
// consecutive rows and refills it, with one sequential ReadRange
// starting at the requested row, whenever the request falls outside.
// Rows come back in place — valid until the next Row call — which is
// what lsh.Ensemble.Partition's serial, use-then-advance loop needs and
// all it is given; one goroutine, one run.
type probeCursor struct {
	r     *shard.Reader
	win   []float64 // rows [start, start+n), row-major; room for a whole number of rows
	start int
	n     int
	// err is the first read failure (Row cannot fail, so it returns a
	// zero row and the driver checks this after the run).
	err error
}

func newProbeCursor(r *shard.Reader) *probeCursor {
	perWin := max(1, probeWindowBytes/(8*r.Cols()))
	return &probeCursor{r: r, win: make([]float64, perWin*r.Cols())}
}

func (c *probeCursor) Rows() int { return c.r.Rows() }

func (c *probeCursor) Row(i int) []float64 {
	cols := c.r.Cols()
	if i < c.start || i >= c.start+c.n {
		// An i outside the matrix still asks for one row, so that
		// ReadRange names it.
		n := max(1, min(len(c.win)/cols, c.r.Rows()-i))
		if err := c.r.ReadRange(i, n, c.win); err != nil {
			if c.err == nil {
				c.err = err
			}
			c.n = 0 // the window's contents are no longer rows [start, start+n)
			return make([]float64, cols)
		}
		c.start, c.n = i, n
	}
	return c.win[(i-c.start)*cols : (i-c.start+1)*cols]
}

// fitSample reads min(size, N) evenly spaced rows into a dense fit
// matrix. With size >= N this is the full matrix in row order, which
// makes every downstream fit identical to a Source.Points run's.
func (s *rowSource) fitSample(size int) (*matrix.Dense, error) {
	n := s.r.Rows()
	m := min(size, n)
	indices := make([]int, m)
	for i := range indices {
		indices[i] = i * n / m // evenly spaced; identity i==idx when m == n
	}
	sample := matrix.NewDense(m, s.r.Cols())
	return sample, s.r.ReadRowsInto(indices, sample.Row)
}
