package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
)

// rowSource answers the questions the MapReduce drivers disagree on —
// all of them forms of "where does a worker get row i":
//
//	source      stage-1 record          stage-2 record              workers
//	recordRows  block of rows by value  indices + raw rows by value any process
//	shardRows   shard row range         index list                  any process that can open the shard directory
//
// Either way a bucket reaches its reducer as raw rows, and the reducer's
// solve does whatever the plan derives from them (sub-Gram or embedding).
// The two jobs in mapreduce.go are written against this interface only.
// Driver-side methods (lshInput, encodeBucket) run on a source built by
// a public driver; mapper/reducer-side methods (eachRow, openBucket)
// also run on the source a worker process rebuilds from the job Conf
// (workerSource).
type rowSource interface {
	// dir is what a worker in another process needs to rebuild the
	// source: the shard directory, or "" when rows reach workers inside
	// the records.
	dir() string
	// lshInput returns the stage-1 input records and how many of them
	// make one map task.
	lshInput() (input []mapreduce.Pair, splitSize int)
	// eachRow decodes one stage-1 input record and calls fn once per row
	// it stands for, in ascending row order; the row is valid only
	// during the call.
	eachRow(value []byte, fn func(idx int, row []float64) error) error
	// encodeBucket encodes one bucket of the partition as a stage-2
	// value. scratch is the caller's, reused from bucket to bucket and
	// dropped with the loop.
	encodeBucket(indices []int, scratch *[]float64) []byte
	// openBucket decodes a stage-2 value into the bucket's rows.
	openBucket(value []byte) (bucket, error)
}

func init() {
	mapreduce.RegisterFactory("dasc-lsh", lshJobFromConf)
	mapreduce.RegisterFactory("dasc-cluster", clusterJobFromConf)
	// Workers ship this process-cumulative meter back on TCP results so
	// a master in another process can account our shard reads.
	mapreduce.SetShardMeter(func() int64 { return workerShardIO().bytes })
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
// analogue), so its jobs carry no pointer into the driver's memory.
// Every bucket travels as its raw rows, one 'B' record, and an embedded
// bucket is embedded by the reducer that solves it, exactly as the
// shard-backed source's is. points is nil on the worker side.
type recordRows struct {
	points *matrix.Dense
}

func (s *recordRows) dir() string { return "" }

// blockRows is how many consecutive rows one record-carried stage-1
// record holds: the engine's default split, so one block per map task
// cuts the rows into the tasks one record per row did.
const blockRows = 1024

// lshInput ships the rows in blocks of blockRows, each one raw 'B'
// bucket record (the one layout rows travel in; consecutive indices cost
// a byte each) and one map task.
func (s *recordRows) lshInput() ([]mapreduce.Pair, int) {
	n, dim := s.points.Rows(), s.points.Cols()
	input := make([]mapreduce.Pair, 0, (n+blockRows-1)/blockRows)
	for start := 0; start < n; start += blockRows {
		end := min(start+blockRows, n)
		rec := make([]byte, 0, 1+2*binary.MaxVarintLen64+(end-start)*(1+8*dim))
		rec = mapreduce.AppendBucketRows(rec, rowSpan(start, end-start), dim, s.points.Data()[start*dim:end*dim])
		input = append(input, mapreduce.Pair{Key: strconv.Itoa(len(input)), Value: rec})
	}
	return input, 1
}

func (s *recordRows) eachRow(value []byte, fn func(idx int, row []float64) error) error {
	indices, dim, rows, err := mapreduce.ParseBucketRows(value)
	if err != nil {
		return err
	}
	for i, idx := range indices {
		if err := fn(idx, rows[i*dim:(i+1)*dim]); err != nil {
			return err
		}
	}
	return nil
}

func (s *recordRows) encodeBucket(indices []int, scratch *[]float64) []byte {
	ni, dim := len(indices), s.points.Cols()
	if cap(*scratch) < ni*dim {
		*scratch = make([]float64, ni*dim)
	}
	rows := (*scratch)[:ni*dim]
	matrix.GatherRows(rows, s.points, indices)
	return mapreduce.AppendBucketRows(make([]byte, 0, 1+2*binary.MaxVarintLen64+ni*(binary.MaxVarintLen32+8*dim)), indices, dim, rows)
}

func (s *recordRows) openBucket(value []byte) (bucket, error) {
	indices, dim, rows, err := mapreduce.ParseBucketRows(value)
	if err != nil {
		return bucket{}, err
	}
	pts, err := matrix.NewDenseData(len(indices), dim, rows)
	return bucket{points: pts, rows: rowSpan(0, len(indices)), ids: indices}, err
}

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

// shardIO is a reading of the process's shard meters.
type shardIO struct{ bytes, ops, coalesced int64 }

// workerShardIO sums the bytes, ReadAt calls and coalesced reads of
// every reader in this process's cache, for the sharded driver's delta
// accounting and the meter TCP workers ship back.
func workerShardIO() (total shardIO) {
	shardReaders.Range(func(_, v any) bool {
		r := v.(*shard.Reader)
		total.bytes += r.BytesRead()
		total.ops += r.ReadOps()
		total.coalesced += r.CoalescedReads()
		return true
	})
	return total
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

func (s *shardRows) encodeBucket(indices []int, _ *[]float64) []byte {
	return encodeIndices(indices)
}

// openBucket demand-reads one bucket's rows into a dense ni×d block —
// the only rows of the matrix this reduce task ever touches. Bucket
// index lists are sorted ascending, so the coalescing gather turns a
// bucket that lands inside one shard into a few large reads.
func (s *shardRows) openBucket(value []byte) (bucket, error) {
	indices, err := decodeIndices(value)
	if err != nil {
		return bucket{}, err
	}
	pts := matrix.NewDense(len(indices), s.r.Cols())
	err = s.r.ReadRowsInto(indices, pts.Row)
	return bucket{points: pts, rows: rowSpan(0, len(indices)), ids: indices}, err
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
// makes every downstream fit identical to the in-memory drivers'.
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
