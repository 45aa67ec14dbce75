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

// rowSource answers the questions Run's two MapReduce routes disagree on —
// all of them forms of "where does a worker get row i":
//
//	source      stage-1 record          stage-2 record  workers
//	recordRows  block of rows by value  rows by value   any process
//	shardRows   shard row range         index list      any process that can open the shard directory
//
// The driver holds the same two small records either way — a row range
// per map task, an index list per bucket — and the record-carried
// source's expander turns each into the 'B' record of its rows only as
// its task is dispatched, so no row is copied before a task needs it.
// Either way a bucket reaches its reducer as raw rows, and the reducer's
// solve does whatever the plan derives from them (sub-Gram or embedding).
// The two jobs in mapreduce.go are written against this interface only.
// Driver-side methods (lshInput, expander) run on a source built by
// Run; mapper/reducer-side methods (eachRow, openBucket) also run on the
// source a worker process rebuilds from the job Conf (workerSource).
type rowSource interface {
	// dir is what a worker in another process needs to rebuild the
	// source: the shard directory, or "" when rows reach workers inside
	// the records.
	dir() string
	// lshInput returns the stage-1 input records and how many of them
	// make one map task.
	lshInput() (input []mapreduce.Pair, splitSize int)
	// expander is the Job.Expand of a job whose input records name rows
	// in refs' form (rowRanges, indexLists): nil where workers find the
	// rows themselves.
	expander(refs refForm) mapreduce.Expander
	// eachRow decodes one stage-1 input record and calls fn once per row
	// it stands for, in ascending row order; the row is valid only
	// during the call.
	eachRow(value []byte, fn func(idx int, row []float64) error) error
	// bucketShape reads a stage-2 value's point count and row width
	// without touching its rows.
	bucketShape(value []byte) (n, dim int, err error)
	// openBucket decodes a stage-2 value into the bucket's rows, held in
	// rows (at least n×dim floats, the caller's), which b.points aliases.
	openBucket(value []byte, rows []float64) (bucket, error)
}

func init() {
	mapreduce.RegisterFactory("dasc-lsh", lshJobFromConf)
	mapreduce.RegisterFactory("dasc-cluster", clusterJobFromConf)
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

// workerSource rebuilds, from a job Conf, the source a task runs
// against: shard-backed when the conf names a directory, record-carried
// otherwise. Either way only its mapper/reducer side is used.
func workerSource(dir string) (rowSource, error) {
	if dir == "" {
		return &recordRows{}, nil
	}
	return openShardRows(dir)
}

// rowSpan returns [start, start+n): the row ids of a block of
// consecutive rows, or with start 0 the rows of a block that holds
// exactly one bucket.
func rowSpan(start, n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = start + i
	}
	return all
}

// ---- record-carried: rows travel by value ----

// recordRows puts the vectors inside the records (HDFS's input splits
// analogue), so its jobs carry no pointer into the driver's memory: a
// task's rows are written into its frame, one raw 'B' record per map
// task's block or per bucket, and an embedded bucket is embedded by the
// reducer that solves it, exactly as the shard-backed source's is.
// points is nil on the worker side.
type recordRows struct {
	points *matrix.Dense
}

func (s *recordRows) dir() string { return "" }

// blockRows is how many consecutive rows one record-carried stage-1
// record holds: the engine's default split, so one block per map task
// cuts the rows into the tasks one record per row did.
const blockRows = 1024

// lshInput is one row range of blockRows rows per record and map task;
// each expands to a raw 'B' bucket record (the one layout rows travel
// in; consecutive indices cost a byte each).
func (s *recordRows) lshInput() ([]mapreduce.Pair, int) {
	n := s.points.Rows()
	input := make([]mapreduce.Pair, 0, (n+blockRows-1)/blockRows)
	for start := 0; start < n; start += blockRows {
		input = append(input, mapreduce.Pair{Key: strconv.Itoa(len(input)), Value: encodeRowRange(start, min(blockRows, n-start))})
	}
	return input, 1
}

func (s *recordRows) expander(refs refForm) mapreduce.Expander {
	if s.points == nil {
		return nil
	}
	return rowRefs{points: s.points, refs: refs}
}

// eachRow walks a 'B' record a row at a time, so a map task holds its
// frame and one row, not a parsed copy of the block.
func (s *recordRows) eachRow(value []byte, fn func(idx int, row []float64) error) error {
	return mapreduce.EachBucketRow(value, fn)
}

func (s *recordRows) bucketShape(value []byte) (int, int, error) {
	return mapreduce.BucketShape(value)
}

func (s *recordRows) openBucket(value []byte, rows []float64) (bucket, error) {
	n, dim, err := mapreduce.BucketShape(value)
	if err != nil {
		return bucket{}, err
	}
	ids := make([]int, 0, n)
	err = mapreduce.EachBucketRow(value, func(idx int, row []float64) error {
		copy(rows[len(ids)*dim:], row)
		ids = append(ids, idx)
		return nil
	})
	var pts *matrix.Dense
	if err == nil {
		pts, err = matrix.NewDenseData(n, dim, rows[:n*dim])
	}
	if err != nil {
		return bucket{}, err
	}
	return bucket{points: pts, rows: rowSpan(0, n), ids: ids}, nil
}

// rowRefs is the record-carried source's mapreduce.Expander: it turns a
// row reference — a stage-1 row range or a stage-2 index list, in refs'
// form — into the raw 'B' record of the rows it names, written straight
// from the driver's matrix a row at a time. A dispatch sizes the frame
// (Len, twice) and then writes it (Expand); only Expand decodes.
type rowRefs struct {
	points *matrix.Dense
	refs   refForm
}

func (x rowRefs) Len(ref []byte) int {
	n, deltas := x.refs.shape(ref)
	return mapreduce.BucketRecordLen(n, x.points.Cols(), deltas)
}

func (x rowRefs) Expand(w io.Writer, ref []byte) error {
	ids, err := x.refs.decode(ref)
	if err != nil {
		return err
	}
	for _, idx := range ids {
		if idx >= x.points.Rows() {
			return fmt.Errorf("core: row %d of %d", idx, x.points.Rows())
		}
	}
	return mapreduce.WriteBucketRows(w, ids, x.points.Cols(), func(i int) []float64 { return x.points.Row(ids[i]) })
}

// refForm is one encoding of a row reference.
type refForm interface {
	// shape reads, without decoding the rows, how many rows ref names
	// and how many bytes their index deltas take in a 'B' record. It is
	// exact for a well-formed reference; decode reports a malformed one.
	shape(ref []byte) (n, deltaBytes int)
	// decode returns the rows ref names.
	decode(ref []byte) ([]int, error)
}

// rowRanges is the stage-1 form, a row range (encodeRowRange);
// indexLists the stage-2 form, an index list (encodeIndices), whose
// bytes after the count are already a 'B' record's delta section.
type (
	rowRanges  struct{}
	indexLists struct{}
)

var (
	rangeIndices refForm = rowRanges{}
	listIndices  refForm = indexLists{}
)

func (rowRanges) shape(ref []byte) (int, int) {
	start, count, err := decodeRowRange(ref)
	if err != nil || count == 0 {
		return 0, 0
	}
	// Deltas: the first row, then a 1 per further row.
	var first [binary.MaxVarintLen64]byte
	return count, binary.PutVarint(first[:], int64(start)) + count - 1
}

func (rowRanges) decode(ref []byte) ([]int, error) {
	start, count, err := decodeRowRange(ref)
	return rowSpan(start, count), err
}

func (indexLists) shape(ref []byte) (int, int) {
	count, deltas, err := indexCount(ref)
	if err != nil {
		return 0, 0
	}
	return count, deltas
}

// indexCount reads an index list's count, and how many bytes its deltas
// take, without decoding them; each delta takes at least a byte.
func indexCount(ref []byte) (count, deltaBytes int, err error) {
	c, w := binary.Uvarint(ref)
	if w <= 0 || c > uint64(len(ref)-w) {
		return 0, 0, fmt.Errorf("core: bad index list")
	}
	return int(c), len(ref) - w, nil
}

func (indexLists) decode(ref []byte) ([]int, error) { return decodeIndices(ref) }

// ---- shard-backed: rows stay in shard files ----

// shardRows leaves the matrix in a shard directory (internal/shard):
// stage 1 maps over shard row ranges — each mapper streams exactly its
// range from the process-local reader — and stage 2 ships only index
// lists, the reducer hydrating each bucket's rows on demand. The driver's
// margin-ordered probing reads the same reader through a probeCursor.
type shardRows struct {
	path string
	r    *shard.Reader
}

// shardReaders caches one open shard.Reader per directory for the
// lifetime of the process — the HDFS-block-cache analogue. The readers
// are never closed (their handles die with the process, and every task
// of every job over the same input shares them); reads go through
// ReadAt, so one reader serves concurrent tasks.
var shardReaders sync.Map // dir -> *shard.Reader

// openShardRows returns the source over the process-wide reader for
// dir, opening it on first use. A racing open closes the loser.
func openShardRows(dir string) (*shardRows, error) {
	if v, ok := shardReaders.Load(dir); ok {
		return &shardRows{path: dir, r: v.(*shard.Reader)}, nil
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
	return &shardRows{path: dir, r: r}, nil
}

// shardIO is a reading of one reader's meters.
type shardIO struct{ bytes, ops, coalesced int64 }

// io reads the meters of the source's reader, which Run takes the delta
// of around a run.
func (s *shardRows) io() shardIO {
	return shardIO{s.r.BytesRead(), s.r.ReadOps(), s.r.CoalescedReads()}
}

func (s *shardRows) dir() string { return s.path }

// lshInput is one record, and one map task, per shard row range (the
// HDFS-input-split analogue).
func (s *shardRows) lshInput() ([]mapreduce.Pair, int) {
	ranges := s.r.Ranges()
	input := make([]mapreduce.Pair, len(ranges))
	for i, rg := range ranges {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: encodeRowRange(rg[0], rg[1]-rg[0])}
	}
	return input, 1
}

func (s *shardRows) eachRow(value []byte, fn func(idx int, row []float64) error) error {
	start, count, err := decodeRowRange(value)
	if err != nil {
		return err
	}
	return s.r.Stream(start, count, fn)
}

// expander is nil: workers read the rows from the shards themselves.
func (s *shardRows) expander(refForm) mapreduce.Expander { return nil }

// bucketShape reads an index list's count; the rows are the shard's
// width.
func (s *shardRows) bucketShape(value []byte) (int, int, error) {
	count, _, err := indexCount(value)
	return count, s.r.Cols(), err
}

// openBucket demand-reads one bucket's rows into a dense ni×d block —
// the only rows of the matrix this reduce task ever touches. Bucket
// index lists are sorted ascending, so the coalescing gather turns a
// bucket that lands inside one shard into a few large reads.
func (s *shardRows) openBucket(value []byte, rows []float64) (bucket, error) {
	indices, err := decodeIndices(value)
	if err != nil {
		return bucket{}, err
	}
	pts, err := matrix.NewDenseData(len(indices), s.r.Cols(), rows[:len(indices)*s.r.Cols()])
	if err == nil {
		err = s.r.ReadRowsInto(indices, pts.Row)
	}
	if err != nil {
		return bucket{}, err
	}
	return bucket{points: pts, rows: rowSpan(0, len(indices)), ids: indices}, nil
}

// encodeRowRange / decodeRowRange pack a stage-1 input record: one
// half-open shard row range [start, start+count).
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
func (s *shardRows) fitSample(size int) (*matrix.Dense, error) {
	n := s.r.Rows()
	m := min(size, n)
	indices := make([]int, m)
	for i := range indices {
		indices[i] = i * n / m // evenly spaced; identity i==idx when m == n
	}
	sample := matrix.NewDense(m, s.r.Cols())
	return sample, s.r.ReadRowsInto(indices, sample.Row)
}
