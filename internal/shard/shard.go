// Package shard stores a dense row matrix as a directory of row-range
// shard files, so out-of-core drivers can stream or demand-read input
// rows instead of holding the full matrix resident. The layout is the
// DASC analogue of HDFS input splits: each shard owns a contiguous,
// half-open row range [StartRow, StartRow+Rows), shards tile the
// matrix without gaps or overlap, and any row is addressable with one
// ReadAt at a fixed stride.
//
// File format ("DSHD", version 1), all integers little-endian:
//
//	offset  size  field
//	0       4     magic "DSHD"
//	4       4     version (uint32, = 1)
//	8       8     startRow (uint64)
//	16      8     rows (uint64)
//	24      8     cols (uint64)
//	32      8·cols·rows  row-major float64 payload
//
// The fixed 32-byte header plus the fixed 8·cols row stride means
// row i of the matrix lives in the shard covering i at offset
// 32 + (i-startRow)·8·cols, with no index structure to load.
package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// magic identifies a shard file; version gates format evolution.
const (
	magic      = "DSHD"
	version    = 1
	headerSize = 32
)

// DefaultRowsPerShard is the Writer's shard size when none is given —
// small enough that a worker's working set is a modest slice of the
// matrix, large enough that a million-row corpus stays under a few
// hundred files.
const DefaultRowsPerShard = 8192

// writeBufBytes sizes the Writer's buffer: rows reach the file in
// writes of this size instead of one write(2) per row. Measured at
// 256 KiB (with corpus's spool buffers and core's probe window enlarged
// alongside) the benchmark's corpus-local ran no faster and peaked 7 %
// higher in RSS, so this is a small constant rather than a knob.
const writeBufBytes = 64 << 10

// Writer splits an incoming row stream into shard files under a
// directory. Rows arrive through Append in matrix order and are
// buffered; Close seals the final partial shard, and nothing is durable
// — nor is a shard's header complete — before the shard is sealed.
type Writer struct {
	dir     string
	cols    int
	perFile int

	f        *os.File      // current shard, nil between shards
	bw       *bufio.Writer // over f; one buffer, Reset per shard
	shardIdx int
	startRow int // first row of the current shard
	rowInFil int // rows written to the current shard
	nextRow  int // global row index of the next Append
	buf      []byte
	closed   bool
	err      error // the first write or seal failure; every later call reports it
}

// NewWriter creates a shard writer for rows of cols float64 columns,
// writing at most rowsPerShard rows per file (DefaultRowsPerShard when
// rowsPerShard <= 0). The directory is created if missing.
func NewWriter(dir string, cols, rowsPerShard int) (*Writer, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("shard: cols must be positive, got %d", cols)
	}
	if rowsPerShard <= 0 {
		rowsPerShard = DefaultRowsPerShard
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return &Writer{
		dir:     dir,
		cols:    cols,
		perFile: rowsPerShard,
		bw:      bufio.NewWriterSize(nil, writeBufBytes),
		buf:     make([]byte, 8*cols),
	}, nil
}

// Append writes one row. The row must have exactly cols values. After a
// failed write or seal the Writer is dead: the shard it was writing is
// closed and unreadable, and Append and Close keep returning that error.
func (w *Writer) Append(row []float64) error {
	if w.closed {
		return errors.New("shard: append after Close")
	}
	if w.err != nil {
		return w.err
	}
	if len(row) != w.cols {
		return fmt.Errorf("shard: row has %d cols, want %d", len(row), w.cols)
	}
	if w.f == nil {
		if err := w.openShard(); err != nil {
			return err
		}
	}
	for i, v := range row {
		binary.LittleEndian.PutUint64(w.buf[8*i:], math.Float64bits(v))
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		w.err = errors.Join(fmt.Errorf("shard: write row %d: %w", w.nextRow, err), w.f.Close())
		w.f = nil
		return w.err
	}
	w.rowInFil++
	w.nextRow++
	if w.rowInFil == w.perFile {
		return w.sealShard()
	}
	return nil
}

// openShard starts the next shard file with a placeholder header; the
// real row count lands in sealShard.
func (w *Writer) openShard() error {
	name := filepath.Join(w.dir, fmt.Sprintf("shard-%06d.dshd", w.shardIdx))
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	w.f = f
	w.bw.Reset(f)
	w.startRow = w.nextRow
	w.rowInFil = 0
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(w.startRow))
	// rows written as 0 here; fixed up on seal.
	binary.LittleEndian.PutUint64(hdr[24:], uint64(w.cols))
	// A header always fits the freshly Reset buffer, so this cannot fail;
	// the first write that can is a row's.
	_, _ = w.bw.Write(hdr[:])
	return nil
}

// sealShard drains the buffer, stamps the row count into the header and
// closes the file. The count goes in only behind every row it counts: a
// shard whose rows did not all reach the file keeps its placeholder 0
// and fails Open's size check.
func (w *Writer) sealShard() error {
	err := w.bw.Flush()
	if err == nil {
		var rows [8]byte
		binary.LittleEndian.PutUint64(rows[:], uint64(w.rowInFil))
		_, err = w.f.WriteAt(rows[:], 16)
	}
	err = errors.Join(err, w.f.Close())
	w.f = nil
	w.shardIdx++
	if err != nil {
		w.err = fmt.Errorf("shard: seal shard %d: %w", w.shardIdx-1, err)
	}
	return w.err
}

// Close seals any partial final shard. It is safe to call once.
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("shard: double Close")
	}
	w.closed = true
	if w.f != nil {
		return w.sealShard()
	}
	return w.err
}

// Rows returns the number of rows appended so far.
func (w *Writer) Rows() int { return w.nextRow }

// WriteRows shards an in-memory row slice in one call — the batch
// convenience over NewWriter/Append/Close.
func WriteRows(dir string, rows [][]float64, cols, rowsPerShard int) (err error) {
	w, werr := NewWriter(dir, cols, rowsPerShard)
	if werr != nil {
		return werr
	}
	defer func() { err = errors.Join(err, w.Close()) }()
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// shardFile is one opened shard with its decoded header.
type shardFile struct {
	f          *os.File
	startRow   int
	rows       int
	colsCached int
}

// Reader exposes a shard directory as a random-access row matrix. All
// read methods are safe for concurrent use (reads go through ReadAt);
// BytesRead tallies payload bytes fetched from disk, ReadOps the
// ReadAt calls issued, and CoalescedReads how many of those calls
// served more than one requested row (the gather-coalescing and
// streaming-readahead paths).
type Reader struct {
	shards    []shardFile
	rows      int
	cols      int
	read      atomic.Int64
	ops       atomic.Int64
	coalesced atomic.Int64
}

// coalesceBlockBytes caps the reusable gather block: adjacent requested
// rows are fetched with one ReadAt as long as the run stays under this
// many bytes (always at least one row).
const coalesceBlockBytes = 1 << 20

// streamBlockBytes is the readahead granule for Stream: the producer
// goroutine fetches blocks of about this size one block ahead of the
// consumer.
const streamBlockBytes = 256 << 10

// Open scans dir for shard-*.dshd files, validates their headers tile
// a contiguous [0, rows) range with one column count, and returns a
// Reader over them.
func Open(dir string) (_ *Reader, err error) {
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		return nil, fmt.Errorf("shard: %w", derr)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "shard-") && strings.HasSuffix(e.Name(), ".dshd") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: no shard files in %s", dir)
	}
	sort.Strings(names)
	r := &Reader{}
	defer func() {
		if err != nil {
			err = errors.Join(err, r.Close())
		}
	}()
	for _, name := range names {
		sf, oerr := openShard(filepath.Join(dir, name))
		if oerr != nil {
			return nil, oerr
		}
		r.shards = append(r.shards, sf)
		if len(r.shards) == 1 {
			r.cols = sf.cols()
		} else if sf.cols() != r.cols {
			return nil, fmt.Errorf("shard: %s has %d cols, want %d", name, sf.cols(), r.cols)
		}
		if sf.startRow != r.rows {
			return nil, fmt.Errorf("shard: %s starts at row %d, want %d (gap or overlap)", name, sf.startRow, r.rows)
		}
		r.rows += sf.rows
	}
	return r, nil
}

// cols reads the column count back out of the shard header cache.
func (s *shardFile) cols() int { return s.colsCached }

// openShard opens and validates one shard file.
func openShard(path string) (shardFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return shardFile{}, fmt.Errorf("shard: %w", err)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return shardFile{}, errors.Join(fmt.Errorf("shard: %s: short header: %w", path, err), f.Close())
	}
	if string(hdr[:4]) != magic {
		return shardFile{}, errors.Join(fmt.Errorf("shard: %s: bad magic %q", path, hdr[:4]), f.Close())
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return shardFile{}, errors.Join(fmt.Errorf("shard: %s: unsupported version %d", path, v), f.Close())
	}
	startRow := binary.LittleEndian.Uint64(hdr[8:])
	rows := binary.LittleEndian.Uint64(hdr[16:])
	cols := binary.LittleEndian.Uint64(hdr[24:])
	const maxDim = 1 << 40
	if cols == 0 || cols > maxDim || rows > maxDim || startRow > maxDim {
		return shardFile{}, errors.Join(fmt.Errorf("shard: %s: implausible header (start=%d rows=%d cols=%d)", path, startRow, rows, cols), f.Close())
	}
	st, serr := f.Stat()
	if serr != nil {
		return shardFile{}, errors.Join(fmt.Errorf("shard: %s: %w", path, serr), f.Close())
	}
	want := int64(headerSize) + int64(rows)*int64(cols)*8
	if st.Size() != want {
		return shardFile{}, errors.Join(fmt.Errorf("shard: %s: size %d, want %d for %d×%d", path, st.Size(), want, rows, cols), f.Close())
	}
	return shardFile{f: f, startRow: int(startRow), rows: int(rows), colsCached: int(cols)}, nil
}

// Rows returns the total row count across all shards.
func (r *Reader) Rows() int { return r.rows }

// Cols returns the column count.
func (r *Reader) Cols() int { return r.cols }

// BytesRead returns the payload bytes read from shard files so far.
func (r *Reader) BytesRead() int64 { return r.read.Load() }

// ReadOps returns the ReadAt calls issued against shard files so far.
func (r *Reader) ReadOps() int64 { return r.ops.Load() }

// CoalescedReads returns how many ReadAt calls served more than one
// requested row.
func (r *Reader) CoalescedReads() int64 { return r.coalesced.Load() }

// locate finds the shard covering global row i by binary search.
func (r *Reader) locate(i int) (*shardFile, error) {
	if i < 0 || i >= r.rows {
		return nil, fmt.Errorf("shard: row %d out of range [0,%d)", i, r.rows)
	}
	lo, hi := 0, len(r.shards)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.shards[mid].startRow+r.shards[mid].rows <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &r.shards[lo], nil
}

// ReadRow reads global row i into dst (allocated when nil or short)
// and returns it. Safe for concurrent use.
func (r *Reader) ReadRow(i int, dst []float64) ([]float64, error) {
	if cap(dst) < r.cols {
		dst = make([]float64, r.cols)
	}
	dst = dst[:r.cols]
	if err := r.ReadRange(i, 1, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadRange reads the count consecutive rows starting at global row
// start into dst, row-major; dst must hold at least count·cols values.
// It is the sequential window read — one ReadAt per shard the range
// touches, with no index list to build or sort — for callers that walk
// rows in order and want them in their own buffer. Safe for concurrent
// use.
func (r *Reader) ReadRange(start, count int, dst []float64) error {
	if start < 0 || count < 0 || start+count > r.rows {
		return fmt.Errorf("shard: range [%d,%d) out of [0,%d)", start, start+count, r.rows)
	}
	if len(dst) < count*r.cols {
		return fmt.Errorf("shard: %d values of room for %d rows of %d cols", len(dst), count, r.cols)
	}
	stride := int64(r.cols) * 8
	var block []byte // one buffer for every segment, grown to the largest
	for count > 0 {
		sf, err := r.locate(start)
		if err != nil {
			return err
		}
		n := min(count, sf.startRow+sf.rows-start)
		need := int64(n) * stride
		if int64(cap(block)) < need {
			block = make([]byte, need)
		}
		b := block[:need]
		if _, err := sf.f.ReadAt(b, headerSize+int64(start-sf.startRow)*stride); err != nil {
			return fmt.Errorf("shard: read rows [%d,%d): %w", start, start+n, err)
		}
		r.read.Add(need)
		r.ops.Add(1)
		if n > 1 {
			r.coalesced.Add(1)
		}
		for j := range dst[:n*r.cols] {
			dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		dst = dst[n*r.cols:]
		start += n
		count -= n
	}
	return nil
}

// ReadRowsInto gathers the given global rows, writing row indices[pos]
// into the slice dst(pos) returns (which must hold at least cols
// values). The requests are visited in sorted row order and adjacent
// rows are coalesced into single bounded ReadAt calls through one
// reusable block buffer, so a bucket whose rows cluster inside a shard
// costs a handful of large sequential reads instead of one seek per
// row. Results are identical to per-row ReadRow calls for any request
// order, duplicates included.
func (r *Reader) ReadRowsInto(indices []int, dst func(pos int) []float64) error {
	if len(indices) == 0 {
		return nil
	}
	stride := int64(r.cols) * 8
	maxRows := int(coalesceBlockBytes / stride)
	if maxRows < 1 {
		maxRows = 1
	}
	// Sort request positions by row; ties keep request order (the
	// comparator falls back to the position, which is unique).
	order := make([]int, len(indices))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := indices[order[a]], indices[order[b]]
		if ia != ib {
			return ia < ib
		}
		return order[a] < order[b]
	})
	var block []byte
	for k := 0; k < len(order); {
		first := indices[order[k]]
		sf, err := r.locate(first)
		if err != nil {
			return err
		}
		shardEnd := sf.startRow + sf.rows
		// Extend the run over duplicate or adjacent rows while it fits
		// the shard and the block budget.
		last := first
		j := k + 1
		for j < len(order) {
			idx := indices[order[j]]
			if idx == last {
				j++
				continue
			}
			if idx != last+1 || idx >= shardEnd || idx-first+1 > maxRows {
				break
			}
			last = idx
			j++
		}
		n := last - first + 1
		need := int64(n) * stride
		if int64(cap(block)) < need {
			block = make([]byte, need)
		}
		b := block[:need]
		if _, err := sf.f.ReadAt(b, headerSize+int64(first-sf.startRow)*stride); err != nil {
			return fmt.Errorf("shard: read rows [%d,%d]: %w", first, last, err)
		}
		r.read.Add(need)
		r.ops.Add(1)
		if j-k > 1 {
			r.coalesced.Add(1)
		}
		for ; k < j; k++ {
			pos := order[k]
			base := (indices[pos] - first) * int(stride)
			d := dst(pos)[:r.cols]
			for c := range d {
				d[c] = math.Float64frombits(binary.LittleEndian.Uint64(b[base+8*c:]))
			}
		}
	}
	return nil
}

// ReadRows gathers the given global rows into a freshly allocated
// [len(indices)][cols] slice — the demand-hydration primitive for
// bucket solves that touch a sparse subset of rows.
func (r *Reader) ReadRows(indices []int) ([][]float64, error) {
	out := make([][]float64, len(indices))
	for k := range out {
		out[k] = make([]float64, r.cols)
	}
	if err := r.ReadRowsInto(indices, func(pos int) []float64 { return out[pos] }); err != nil {
		return nil, err
	}
	return out, nil
}

// Stream visits rows [start, start+count) in order, reusing one row
// buffer across calls — the sequential scan primitive for map tasks
// assigned a row range. A readahead goroutine fetches
// streamBlockBytes-sized blocks double-buffered ahead of the consumer,
// so disk latency overlaps fn. fn must not retain the slice.
func (r *Reader) Stream(start, count int, fn func(i int, row []float64) error) error {
	if count == 0 {
		return nil
	}
	if start < 0 || count < 0 || start+count > r.rows {
		return fmt.Errorf("shard: range [%d,%d) out of [0,%d)", start, start+count, r.rows)
	}
	stride := int64(r.cols) * 8
	blockRows := int(streamBlockBytes / stride)
	if blockRows < 1 {
		blockRows = 1
	}
	type block struct {
		start, n int
		buf      []byte
		err      error
	}
	// Two buffers circulate producer -> blocks -> consumer -> free, so
	// the producer reads block k+1 while the consumer decodes block k.
	free := make(chan []byte, 2)
	free <- nil
	free <- nil
	blocks := make(chan block, 1)
	stop := make(chan struct{})
	go func() {
		defer close(blocks)
		for i, rem := start, count; rem > 0; {
			sf, err := r.locate(i)
			if err != nil {
				select {
				case blocks <- block{err: err}:
				case <-stop:
				}
				return
			}
			n := sf.startRow + sf.rows - i
			if n > rem {
				n = rem
			}
			if n > blockRows {
				n = blockRows
			}
			var buf []byte
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			need := int(int64(n) * stride)
			if cap(buf) < need {
				buf = make([]byte, need)
			}
			buf = buf[:need]
			if _, err := sf.f.ReadAt(buf, headerSize+int64(i-sf.startRow)*stride); err != nil {
				select {
				case blocks <- block{err: fmt.Errorf("shard: stream rows [%d,%d): %w", i, i+n, err)}:
				case <-stop:
				}
				return
			}
			r.read.Add(int64(need))
			r.ops.Add(1)
			if n > 1 {
				r.coalesced.Add(1)
			}
			select {
			case blocks <- block{start: i, n: n, buf: buf}:
			case <-stop:
				return
			}
			i += n
			rem -= n
		}
	}()
	defer close(stop) // unblocks the producer on any early return
	row := make([]float64, r.cols)
	for b := range blocks {
		if b.err != nil {
			return b.err
		}
		for k := 0; k < b.n; k++ {
			base := k * int(stride)
			for c := range row {
				row[c] = math.Float64frombits(binary.LittleEndian.Uint64(b.buf[base+8*c:]))
			}
			if err := fn(b.start+k, row); err != nil {
				return err
			}
		}
		select {
		case free <- b.buf:
		default:
		}
	}
	return nil
}

// Close releases every shard file handle.
func (r *Reader) Close() error {
	var errs []error
	for i := range r.shards {
		if r.shards[i].f != nil {
			errs = append(errs, r.shards[i].f.Close())
			r.shards[i].f = nil
		}
	}
	return errors.Join(errs...)
}

// Ranges returns the [start, start+rows) row range of every shard in
// order — the natural map-task split list for a sharded job.
func (r *Reader) Ranges() [][2]int {
	out := make([][2]int, len(r.shards))
	for i, s := range r.shards {
		out[i] = [2]int{s.startRow, s.startRow + s.rows}
	}
	return out
}
