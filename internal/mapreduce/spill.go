package mapreduce

// Spill-to-disk sorted runs: the out-of-core half of the merge shuffle.
//
// When Job.SpillBytes > 0, the executor buffers map-side sorted runs in
// memory only up to that budget (Hadoop's io.sort.mb analogue, measured
// as the runs' on-disk record size). Exceeding it flushes every
// buffered run to disk: each reduce partition owns ONE spill file and a
// flushed run becomes a (seq, offset, length) segment appended to that
// file, so the open-file count stays at the partition count no matter
// how many map tasks spill. Records are framed exactly like the wire
// codec's string/bytes fields — uvarint key length, key bytes, uvarint
// value length, value bytes — so a segment is a byte-for-byte
// length-prefixed run file.
//
// Reading back streams each segment through an io.SectionReader, one
// buffered record at a time; the k-way merge (MergeRunReaders) then
// consumes file-backed and still-buffered runs uniformly through the
// RunReader interface, ordered by map-task Seq. A spilled run holds the
// same pairs in the same order as its in-memory original, and the merge
// breaks ties by run order, so spilling can never change a job's
// output: the shuffle's determinism contract (see merge.go) is
// preserved bit for bit at any SpillBytes.

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// RunReader streams one key-sorted run of pairs. Next returns io.EOF
// after the last pair; Close releases whatever backs the run and must
// be called on every reader, on error paths included.
type RunReader interface {
	Next() (Pair, error)
	Close() error
}

// SliceRun wraps an in-memory key-sorted run as a RunReader.
func SliceRun(pairs []Pair) RunReader { return &sliceRun{pairs: pairs} }

type sliceRun struct {
	pairs []Pair
	i     int
}

func (r *sliceRun) Next() (Pair, error) {
	if r.i == len(r.pairs) {
		return Pair{}, io.EOF
	}
	p := r.pairs[r.i]
	r.i++
	return p, nil
}

func (r *sliceRun) Close() error { return nil }

// appendRunRecord appends one pair in the on-disk run framing — the
// same uvarint-length-prefixed layout the wire codec uses for its
// string and bytes fields.
func appendRunRecord(buf []byte, p Pair) []byte {
	buf = appendWireString(buf, p.Key)
	buf = appendWireBytes(buf, p.Value)
	return buf
}

// pairDiskBytes is a pair's framed size on disk; the spill budget is
// accounted in these units so the budget bounds real file bytes.
func pairDiskBytes(p Pair) int64 {
	return int64(wireFieldSize(len(p.Key)) + wireFieldSize(len(p.Value)))
}

// fileRun streams one spilled segment's records back. It reads through
// its own buffered view of the shared partition file (io.SectionReader
// wraps ReadAt, so concurrent fileRuns never disturb each other); a
// clean io.EOF on the leading uvarint is the end of the segment, while
// a truncated record surfaces as io.ErrUnexpectedEOF. Deflated segments
// interpose a flate reader, so record framing past it is identical.
type fileRun struct {
	br *bufio.Reader
	zc io.Closer // the flate reader of a deflated segment, else nil
}

func newFileRun(f *os.File, seg segment) *fileRun {
	br := bufio.NewReaderSize(io.NewSectionReader(f, seg.off, seg.n), 32*1024)
	if !seg.deflated {
		return &fileRun{br: br}
	}
	zr := flate.NewReader(br)
	return &fileRun{br: bufio.NewReaderSize(zr, 32*1024), zc: zr}
}

func (r *fileRun) Next() (Pair, error) {
	klen, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return Pair{}, io.EOF
		}
		return Pair{}, fmt.Errorf("mapreduce: spill run key length: %w", err)
	}
	if klen > maxFrameBody {
		return Pair{}, fmt.Errorf("mapreduce: spill run key length %d too large", klen)
	}
	key := make([]byte, klen)
	if _, err := io.ReadFull(r.br, key); err != nil {
		return Pair{}, fmt.Errorf("mapreduce: spill run key: %w", noEOF(err))
	}
	vlen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Pair{}, fmt.Errorf("mapreduce: spill run value length: %w", noEOF(err))
	}
	if vlen > maxFrameBody {
		return Pair{}, fmt.Errorf("mapreduce: spill run value length %d too large", vlen)
	}
	val := make([]byte, vlen)
	if _, err := io.ReadFull(r.br, val); err != nil {
		return Pair{}, fmt.Errorf("mapreduce: spill run value: %w", noEOF(err))
	}
	return Pair{Key: string(key), Value: emptyToNil(val)}, nil
}

func (r *fileRun) Close() error { // the spillSet owns the file
	if r.zc != nil {
		return r.zc.Close()
	}
	return nil
}

// noEOF upgrades a bare io.EOF inside a record to ErrUnexpectedEOF so
// it cannot be mistaken for a clean end of run.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// memRun is one map task's still-buffered sorted run for a partition.
type memRun struct {
	seq   int
	pairs []Pair
}

// segment is one spilled run inside a partition's spill file. n is the
// segment's on-disk length — the deflated length when deflated is set.
type segment struct {
	seq      int
	off, n   int64
	deflated bool
}

// spillPartition is one reduce partition's spill state: at most one
// open file (segments append to it) plus the runs still in memory.
type spillPartition struct {
	f    *os.File
	w    *bufio.Writer
	off  int64
	mem  []memRun
	segs []segment
}

// spillSet is the shuffle buffer of one job: it holds map-side sorted
// runs per reduce partition, under a byte budget when the job has one
// (budget > 0), flushing every buffered run to the partitions' spill
// files when the budget is exceeded; with no budget every run stays in
// memory and no file is ever created. add may be called concurrently;
// reads happen after seal.
type spillSet struct {
	budget int64
	// compress deflates each run on flush (one flate stream per
	// segment). The budget, flush points, segment seqs, and therefore
	// the merge's tie-break order are all accounted in raw framed bytes
	// and do not change — only the file bytes do.
	compress bool

	mu       sync.Mutex
	dir      string // created lazily on first flush
	parts    []spillPartition
	buffered int64 // framed bytes of all in-memory runs (tracked under a budget only)
	records  int   // pairs added
	payload  int64 // their key+value bytes

	spillBytes    int64 // bytes written to spill files (deflated when compress)
	spillRawBytes int64 // framed record bytes before compression
	spillNanos    int64
}

func newSpillSet(numPartitions int, budget int64, compress bool) *spillSet {
	return &spillSet{budget: budget, compress: compress, parts: make([]spillPartition, numPartitions)}
}

// add registers one map task's per-partition sorted runs under its task
// sequence number and flushes everything buffered if the budget is now
// exceeded. The runs are retained (not copied) until flushed. The caller
// has checked that parts has no more entries than the set has partitions.
func (s *spillSet) add(seq int, parts [][]Pair) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, run := range parts {
		if len(run) == 0 {
			continue
		}
		s.parts[p].mem = append(s.parts[p].mem, memRun{seq: seq, pairs: run})
		s.records += len(run)
		for _, kv := range run {
			s.payload += int64(len(kv.Key) + len(kv.Value))
			if s.budget > 0 {
				s.buffered += pairDiskBytes(kv)
			}
		}
	}
	if s.budget > 0 && s.buffered > s.budget {
		return s.flushLocked()
	}
	return nil
}

// flushLocked writes every buffered run out as a new segment of its
// partition's spill file. Called with s.mu held.
func (s *spillSet) flushLocked() error {
	start := time.Now()
	if s.dir == "" {
		dir, err := os.MkdirTemp("", "dasc-spill-*")
		if err != nil {
			return fmt.Errorf("mapreduce: spill dir: %w", err)
		}
		s.dir = dir
	}
	var buf []byte
	for p := range s.parts {
		sp := &s.parts[p]
		if len(sp.mem) == 0 {
			continue
		}
		if sp.f == nil {
			f, err := os.Create(fmt.Sprintf("%s/part-%04d.run", s.dir, p))
			if err != nil {
				return fmt.Errorf("mapreduce: spill file: %w", err)
			}
			sp.f = f
			sp.w = bufio.NewWriterSize(f, 256*1024)
		}
		for _, run := range sp.mem {
			n, raw, nbuf, err := s.writeRun(sp, run.pairs, buf)
			if err != nil {
				return err
			}
			buf = nbuf
			sp.segs = append(sp.segs, segment{seq: run.seq, off: sp.off, n: n, deflated: s.compress})
			sp.off += n
			s.spillBytes += n
			s.spillRawBytes += raw
		}
		sp.mem = nil
		if err := sp.w.Flush(); err != nil {
			return fmt.Errorf("mapreduce: spill flush: %w", err)
		}
	}
	s.buffered = 0
	s.spillNanos += time.Since(start).Nanoseconds()
	return nil
}

// writeRun writes one run's framed records to sp's spill file —
// straight through, or via a per-segment flate stream when compress is
// on — returning the segment's on-disk and raw framed lengths plus the
// (possibly grown) scratch buffer. Called with s.mu held.
func (s *spillSet) writeRun(sp *spillPartition, pairs []Pair, buf []byte) (n, raw int64, scratch []byte, err error) {
	if !s.compress {
		for _, kv := range pairs {
			buf = appendRunRecord(buf[:0], kv)
			if _, err := sp.w.Write(buf); err != nil {
				return 0, 0, buf, fmt.Errorf("mapreduce: spill write: %w", err)
			}
			n += int64(len(buf))
		}
		return n, n, buf, nil
	}
	cw := &meteredWriter{w: sp.w}
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(cw)
	for _, kv := range pairs {
		buf = appendRunRecord(buf[:0], kv)
		if _, err := fw.Write(buf); err != nil {
			flateWriterPool.Put(fw)
			return 0, 0, buf, fmt.Errorf("mapreduce: spill write: %w", err)
		}
		raw += int64(len(buf))
	}
	err = fw.Close()
	flateWriterPool.Put(fw)
	if err != nil {
		return 0, 0, buf, fmt.Errorf("mapreduce: spill deflate: %w", err)
	}
	return cw.n, raw, buf, nil
}

// meteredWriter counts bytes passed through to w — the deflated length
// of a deflated segment as flate flushes it.
type meteredWriter struct {
	w io.Writer
	n int64
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.n += int64(n)
	return n, err
}

// seal flushes pending file buffers so readers see complete segments.
// Unlike a budget flush it leaves in-memory runs in memory: what never
// exceeded the budget is merged straight from RAM.
func (s *spillSet) seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.parts {
		if s.parts[p].w != nil {
			if err := s.parts[p].w.Flush(); err != nil {
				return fmt.Errorf("mapreduce: spill seal: %w", err)
			}
		}
	}
	return nil
}

// partitionRuns returns one partition's runs — spilled segments and
// still-buffered memory runs — ordered by map-task Seq, the order the
// merge's tie-break contract requires. Call after seal; safe for
// concurrent use across partitions (file access is ReadAt-based).
func (s *spillSet) partitionRuns(p int) []RunReader {
	s.mu.Lock()
	sp := &s.parts[p]
	type seqRun struct {
		seq int
		r   RunReader
	}
	runs := make([]seqRun, 0, len(sp.segs)+len(sp.mem))
	for _, seg := range sp.segs {
		runs = append(runs, seqRun{seg.seq, newFileRun(sp.f, seg)})
	}
	for _, m := range sp.mem {
		runs = append(runs, seqRun{m.seq, SliceRun(m.pairs)})
	}
	s.mu.Unlock()
	sort.Slice(runs, func(a, b int) bool { return runs[a].seq < runs[b].seq })
	out := make([]RunReader, len(runs))
	for i, r := range runs {
		out[i] = r.r
	}
	return out
}

// load returns partition p as a reduce task's record stream: the k-way
// merge of its runs, one buffered pair per run, re-opened on every call
// (a requeued task merges again).
func (s *spillSet) load(p int) recordStream {
	return func(emit func(Pair) error) error {
		runs := s.partitionRuns(p)
		err := MergeRunReaders(runs, emit)
		if cerr := closeRuns(runs); err == nil {
			err = cerr
		}
		return err
	}
}

// materialize merges one partition into a single key-sorted slice: a
// resident reduce task's records, the output of an elided reduce, and
// what a task frame carries. A partition that never spilled is merged
// slice to slice.
func (s *spillSet) materialize(p int) ([]Pair, error) {
	s.mu.Lock()
	sp := &s.parts[p]
	if len(sp.segs) > 0 {
		s.mu.Unlock()
		return collectPairs(s.load(p))
	}
	mem := append([]memRun(nil), sp.mem...)
	s.mu.Unlock()
	sort.Slice(mem, func(a, b int) bool { return mem[a].seq < mem[b].seq })
	runs := make([][]Pair, len(mem))
	for i, m := range mem {
		runs[i] = m.pairs
	}
	return MergeRuns(runs), nil
}

// stats reports the bytes written to spill files (deflated when the
// job compresses), the raw framed bytes they encode, and the wall time
// spent writing them.
func (s *spillSet) stats() (spillBytes, spillRawBytes, spillNanos int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spillBytes, s.spillRawBytes, s.spillNanos
}

// shuffled reports how many pairs entered the shuffle and their
// key+value bytes.
func (s *spillSet) shuffled() (records int, payload int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records, s.payload
}

// Close closes every spill file and removes the spill directory. Safe
// to call when nothing ever spilled.
func (s *spillSet) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for p := range s.parts {
		if s.parts[p].f != nil {
			err = errors.Join(err, s.parts[p].f.Close())
			s.parts[p].f = nil
		}
	}
	if s.dir != "" {
		err = errors.Join(err, os.RemoveAll(s.dir))
		s.dir = ""
	}
	return err
}

// closeRuns closes every reader, joining errors, so no error path leaks
// a file-backed run.
func closeRuns(runs []RunReader) error {
	var err error
	for _, r := range runs {
		err = errors.Join(err, r.Close())
	}
	return err
}
