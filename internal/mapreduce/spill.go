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
// window of records at a time: to the k-way merge (mergeRuns) a spilled
// segment and a still-buffered run are the same run type, the first
// with a fill that decodes the next window and the second without, and
// load hands them over ordered by map-task Seq. A spilled run holds the
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

// A spilled run's window: how much of a segment one fill decodes. 64
// records are enough to amortize the fill and to let the merge hand on
// long stretches, and their Pair headers (2.5 KiB, allocated once per
// open segment) stay small beside the segment's 32 KiB read buffer — at
// 256 the window arrays were a tenth of a spilled shuffle's allocation.
// The payload cap ends a window early once its keys and values pass
// 64 KiB — two read buffers' worth — so what a run keeps resident does
// not grow with its record size: a run of 64 KiB records streams one
// record at a time.
const (
	windowRecords = 64
	windowBytes   = 64 << 10
)

// fileRun decodes one spilled segment's records. It reads through its
// own buffered view of the shared partition file (io.SectionReader
// wraps ReadAt, so concurrent fileRuns never disturb each other, and the
// spillSet owns the file: a fileRun has nothing to close); a clean
// io.EOF on the leading uvarint is the end of the segment, while a
// truncated record surfaces as io.ErrUnexpectedEOF. Deflated segments
// interpose a flate reader, so record framing past it is identical.
type fileRun struct {
	br  *bufio.Reader
	buf []Pair // the window's array, reused fill to fill
}

func newFileRun(f *os.File, seg segment) *fileRun {
	br := bufio.NewReaderSize(io.NewSectionReader(f, seg.off, seg.n), 32*1024)
	if seg.deflated {
		br = bufio.NewReaderSize(flate.NewReader(br), 32*1024)
	}
	return &fileRun{br: br, buf: make([]Pair, 0, windowRecords)}
}

// window is the segment's run.fill: the next records, up to the window's
// record count or payload cap, and none at the end of the segment.
func (r *fileRun) window() ([]Pair, error) {
	r.buf = r.buf[:0]
	for payload := 0; len(r.buf) < windowRecords && payload < windowBytes; {
		kv, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		r.buf = append(r.buf, kv)
		payload += len(kv.Key) + len(kv.Value)
	}
	return r.buf, nil
}

// next decodes one record. The lengths it reads are a file's word, not
// the program's: like a frame body, a key or value is read through
// readExactly, so a corrupt prefix backed by a short segment fails after
// a few chunks instead of reserving what it claims.
func (r *fileRun) next() (Pair, error) {
	key, err := r.field("key")
	if err != nil {
		return Pair{}, err // io.EOF, bare: the segment ended on a record boundary
	}
	val, err := r.field("value")
	if err == io.EOF {
		err = fmt.Errorf("mapreduce: spill run value length: %w", io.ErrUnexpectedEOF)
	}
	if err != nil {
		return Pair{}, err
	}
	return Pair{Key: string(key), Value: emptyToNil(val)}, nil
}

// field reads one length-prefixed field, returning a bare io.EOF when
// the stream ends cleanly before the prefix.
func (r *fileRun) field(what string) ([]byte, error) {
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("mapreduce: spill run %s length: %w", what, err)
	}
	if n > maxFrameBody {
		return nil, fmt.Errorf("mapreduce: spill run %s length %d too large", what, n)
	}
	b, err := readExactly(r.br, int(n))
	if err == io.EOF { // inside a record: not a clean end of run
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("mapreduce: spill run %s: %w", what, err)
	}
	return b, nil
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
	f       *os.File
	w       *bufio.Writer
	off     int64 // bytes written to f through w: where the next segment starts
	mem     []memRun
	segs    []segment
	records int // pairs added, spilled or not: what load delivers
}

// Write appends to the partition's file, metering it: a segment's
// on-disk length is how far off moved, which for a deflated one is
// known only as flate flushes it.
func (sp *spillPartition) Write(p []byte) (int, error) {
	n, err := sp.w.Write(p)
	sp.off += int64(n)
	return n, err
}

// spillSet is the shuffle buffer of one job: it holds map-side sorted
// runs per reduce partition, under a byte budget when the job has one
// (budget > 0), flushing every buffered run to the partitions' spill
// files when the budget is exceeded; with no budget every run stays in
// memory and no file is ever created. add may be called concurrently;
// reads happen once the map phase is done. Every flush ends with each
// written partition's file buffer flushed, so a completed add leaves
// nothing a ReadAt cannot see.
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
	buffered int64  // framed bytes of all in-memory runs (tracked under a budget only)
	payload  int64  // key+value bytes of every pair added
	scratch  []byte // one framed record, reused across flushes

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
		s.parts[p].records += len(run)
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
// partition's spill file and flushes the file buffer, so the segment is
// readable as soon as it returns. Called with s.mu held.
func (s *spillSet) flushLocked() error {
	start := time.Now()
	if s.dir == "" {
		dir, err := os.MkdirTemp("", "dasc-spill-*")
		if err != nil {
			return fmt.Errorf("mapreduce: spill dir: %w", err)
		}
		s.dir = dir
	}
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
			seg := segment{seq: run.seq, off: sp.off, deflated: s.compress}
			raw, err := s.writeRun(sp, run.pairs)
			if err != nil {
				return err
			}
			seg.n = sp.off - seg.off
			sp.segs = append(sp.segs, seg)
			s.spillBytes += seg.n
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
// on — returning their raw framed length. Called with s.mu held.
func (s *spillSet) writeRun(sp *spillPartition, pairs []Pair) (raw int64, err error) {
	var w io.Writer = sp
	var fw *flate.Writer
	if s.compress {
		fw = flateWriterPool.Get().(*flate.Writer)
		defer flateWriterPool.Put(fw)
		fw.Reset(sp)
		w = fw
	}
	for _, kv := range pairs {
		s.scratch = appendRunRecord(s.scratch[:0], kv)
		if _, err := w.Write(s.scratch); err != nil {
			return 0, fmt.Errorf("mapreduce: spill write: %w", err)
		}
		raw += int64(len(s.scratch))
	}
	if fw != nil {
		if err := fw.Close(); err != nil {
			return 0, fmt.Errorf("mapreduce: spill deflate: %w", err)
		}
	}
	return raw, nil
}

// load returns partition p as a record stream — the shuffle's one read
// entry point, and every reduce task's feed: the k-way merge of the
// partition's runs, spilled segments and still-buffered memory runs
// alike, ordered by map-task Seq as the merge's tie-break contract
// requires. The runs are re-opened on every call (a requeued task merges
// again). Call once the map phase is done; safe for concurrent use
// across and within partitions (file access is ReadAt-based, resident
// runs are only read).
func (s *spillSet) load(p int) recordStream {
	return func(emit func([]Pair) error) error {
		type seqRun struct {
			seq int
			run
		}
		s.mu.Lock()
		sp := &s.parts[p]
		ordered := make([]seqRun, 0, len(sp.segs)+len(sp.mem))
		for _, seg := range sp.segs {
			ordered = append(ordered, seqRun{seg.seq, run{fill: newFileRun(sp.f, seg).window}})
		}
		for _, m := range sp.mem {
			ordered = append(ordered, seqRun{m.seq, run{buf: m.pairs}})
		}
		s.mu.Unlock()
		sort.Slice(ordered, func(a, b int) bool { return ordered[a].seq < ordered[b].seq })
		runs := make([]run, len(ordered))
		for i, o := range ordered {
			runs[i] = o.run
		}
		return mergeRuns(runs, emit)
	}
}

// partitionRecords is how many records load(p) delivers, so a collector
// allocates once.
func (s *spillSet) partitionRecords(p int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parts[p].records
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
	for p := range s.parts {
		records += s.parts[p].records
	}
	return records, s.payload
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
