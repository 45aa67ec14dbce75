package corpus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// spoolBufBytes sizes the spool's write and read buffers. A record is
// about a hundred bytes, so 32 KiB already batches some three hundred
// documents per syscall. Measured with the other two I/O buffers of the
// ingest path (shard.Writer's, core's probe window) all several times
// larger — this one at 64 KiB — corpus-local ran no faster and peaked
// 7 % higher in RSS, so the sizes are small constants, not knobs.
const spoolBufBytes = 32 << 10

// termCount is one entry of a spooled document: a Cleaner term id and
// how often the document used it.
type termCount struct {
	term, tf int32
}

// spool carries StreamDense's documents from its counting pass to its
// scoring pass, so the corpus itself is generated and cleaned once. It
// is one temporary file — on disk, because holding the records would
// make the ingest O(N) in memory — written front to back through one
// buffer, rewound, and read front to back through another.
//
// One record per document, every field a uvarint:
//
//	label, tokens, distinct, then distinct × (term id, tf)
//
// tokens is the document's cleaned length (the tf denominator) and the
// pairs stand in the order the document first used each term.
type spool struct {
	f   *os.File
	w   *bufio.Writer
	r   *bufio.Reader
	rec []byte      // the record being encoded
	got []termCount // the record last decoded
}

// newSpool creates the spool file in os.TempDir.
func newSpool() (*spool, error) {
	f, err := os.CreateTemp("", "dasc-corpus-spool-*")
	if err != nil {
		return nil, fmt.Errorf("corpus: spool: %w", err)
	}
	return &spool{f: f, w: bufio.NewWriterSize(f, spoolBufBytes)}, nil
}

// put appends document doc's record: its distinct terms in first-use
// order, their counts looked up in tf (indexed by term id).
func (s *spool) put(doc, label, tokens int, terms, tf []int32) error {
	rec := binary.AppendUvarint(s.rec[:0], uint64(label))
	rec = binary.AppendUvarint(rec, uint64(tokens))
	rec = binary.AppendUvarint(rec, uint64(len(terms)))
	for _, t := range terms {
		rec = binary.AppendUvarint(rec, uint64(t))
		rec = binary.AppendUvarint(rec, uint64(tf[t]))
	}
	s.rec = rec
	if _, err := s.w.Write(rec); err != nil {
		return fmt.Errorf("corpus: spool: write document %d: %w", doc, err)
	}
	return nil
}

// rewind ends the writing pass and positions the spool at its first
// record.
func (s *spool) rewind() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("corpus: spool: flush: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("corpus: spool: rewind: %w", err)
	}
	s.r = bufio.NewReaderSize(s.f, spoolBufBytes)
	return nil
}

// next decodes document doc's record; the entries it returns are valid
// until the next call. numTerms is how many term ids the writing pass
// assigned; a record that ends early or cannot have been written by put
// is an error naming the document, never a short or zero row.
func (s *spool) next(doc, numTerms int) (label, tokens int, _ []termCount, err error) {
	field := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		if v, err = binary.ReadUvarint(s.r); errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // pass 2 asks only for documents pass 1 wrote
		}
		return v
	}
	l, n, distinct := field(), field(), field()
	if err == nil && distinct > n {
		err = fmt.Errorf("%d distinct terms in %d tokens", distinct, n)
	}
	s.got = s.got[:0]
	for i := uint64(0); i < distinct && err == nil; i++ {
		t, tf := field(), field()
		if err == nil && t >= uint64(numTerms) {
			err = fmt.Errorf("term id %d of %d", t, numTerms)
		}
		s.got = append(s.got, termCount{term: int32(t), tf: int32(tf)})
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("corpus: spool: read document %d: %w", doc, err)
	}
	return int(l), int(n), s.got, nil
}

// discard closes and removes the spool file.
func (s *spool) discard() error {
	return errors.Join(s.f.Close(), os.Remove(s.f.Name()))
}
