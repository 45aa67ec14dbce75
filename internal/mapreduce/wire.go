package mapreduce

// The TCP executor's wire protocol. A connection opens with a hello —
// the worker sends a 5-byte "DASC"+maxVersion greeting and the master
// answers with the single version byte both sides will speak — and
// then carries task/result messages in the negotiated framing:
//
//	version 1 (gob):    the original stateful gob stream, kept for
//	                    lock-step replay and as the negotiation floor.
//	version 2 (frames): length-prefixed binary frames,
//
//	    uvarint bodyLen │ body
//	    body = kind byte ('T' task / 'R' result) │ fields
//
//	    taskMsg   = uvarint Seq │ str JobName │ str Phase │
//	                bytes Conf │ uvarint NumReducers │
//	                uvarint nRecords │ nRecords × (str Key │ bytes Val)
//	    resultMsg = uvarint Seq │ str Err │ uvarint nParts │
//	                nParts × (uvarint nPairs │ nPairs × pair)
//
//	    str/bytes = uvarint length │ raw bytes
//
// Frames need no per-record reflection: encoding appends into a pooled
// scratch buffer (one Write per frame), decoding reads the exact body
// and aliases record values into it (one allocation per frame plus the
// key strings). Both codecs account bytes and serialization wall time
// into per-connection wireStats, which the master aggregates into
// Counters.WireBytes* / *Nanos.
//
//	version 3 (packed): version 2's exact frame layouts plus three
//	                    optional frame kinds, emitted only when the
//	                    payload calls for them — a v3 stream that never
//	                    needs one is byte-identical to v2:
//
//	    'C' compressed  = uvarint rawLen │ flate(inner body incl. kind)
//	                      Wraps any frame whose body reaches
//	                      CompressThreshold while the job has
//	                      Compress on. rawLen is validated against
//	                      maxFrameBody before any allocation, the
//	                      inflated size must match it exactly, and a
//	                      'C' inside a 'C' is rejected.
//	    't' task+flags  = uvarint Flags │ v2 task fields
//	                      Flags bit 0 tells the worker to compress its
//	                      result frames back.
//	    'r' result+IO   = uvarint ShardTok │ uvarint ShardStart │
//	                      uvarint ShardEnd │ v2 result fields
//	                      Carries the worker's process-cumulative shard
//	                      read meter so external workers' shard bytes
//	                      reach the master's Counters (the master
//	                      de-duplicates by process token).

import (
	"bufio"
	"bytes"
	"compress/flate"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Wire protocol versions a master or worker can speak. The hello
// negotiates min(worker max, master max); see TCPConfig.MaxWireVersion.
const (
	// WireVersionGob is the original gob stream framing.
	WireVersionGob = 1
	// WireVersionFrames is the length-prefixed binary frame codec.
	WireVersionFrames = 2
	// WireVersionPacked adds optional per-frame flate compression and
	// the task-flags / result-IO frame variants on top of the v2
	// framing. Streams that use none of them stay byte-identical to v2.
	WireVersionPacked = 3
	// WireVersionLatest is the highest version this build speaks.
	WireVersionLatest = WireVersionPacked
)

// CompressThreshold is the smallest frame body the codec will try to
// compress; smaller frames ship raw since flate's header and the codec
// CPU cost more than they save.
const CompressThreshold = 4096

// taskFlagCompress asks the worker to compress its result frames back
// to the master (taskMsg.Flags bit 0).
const taskFlagCompress = 1

// wireMagic opens every hello; a peer that does not present it is not
// a DASC worker and is disconnected during the handshake.
var wireMagic = [4]byte{'D', 'A', 'S', 'C'}

// helloLen is magic + the sender's maximum version byte.
const helloLen = len(wireMagic) + 1

// maxFrameBody caps a decoded frame body, protecting the master from a
// corrupt or hostile length prefix.
const maxFrameBody = 1 << 30

// frame body kinds.
const (
	frameTask       = 'T'
	frameResult     = 'R'
	frameTaskFlags  = 't' // v3: task with a leading Flags uvarint
	frameResultIO   = 'r' // v3: result with leading shard-meter fields
	frameCompressed = 'C' // v3: flate-wrapped inner frame
)

// wireStats accumulates one connection's traffic. All fields are
// atomics: the pipelined master reads and writes a socket from
// different goroutines, and counter snapshots race with live traffic.
type wireStats struct {
	bytesOut      atomic.Int64
	bytesIn       atomic.Int64
	encodeNanos   atomic.Int64
	decodeNanos   atomic.Int64
	compressSaved atomic.Int64 // raw-minus-wire bytes removed by 'C' frames
	compressNanos atomic.Int64 // wall time inside flate, both directions
}

// codec reads and writes task/result messages on one connection. Every
// method returns the message's size in wire bytes. Implementations are
// safe for one concurrent reader plus one concurrent writer (the
// pipelined connection split), not for two of either.
type codec interface {
	writeTask(t *taskMsg) (int, error)
	readTask(t *taskMsg) (int, error)
	writeResult(r *resultMsg) (int, error)
	readResult(r *resultMsg) (int, error)
	// setCompress turns outbound frame compression on or off. A no-op
	// on codecs that cannot compress (gob, frame versions < 3).
	setCompress(on bool)
}

// newCodec builds the codec for a negotiated version.
func newCodec(conn net.Conn, version byte, st *wireStats) (codec, error) {
	switch version {
	case WireVersionGob:
		return newGobCodec(conn, st), nil
	case WireVersionFrames, WireVersionPacked:
		return newFrameCodec(conn, version, st), nil
	}
	return nil, fmt.Errorf("mapreduce: unsupported wire version %d", version)
}

// ---- worker shard metering (satellite: external workers' shard reads) ----

// shardMeterFn reports a process-cumulative count of shard bytes read;
// internal/core registers its shard-reader meter here so workers can
// ship the delta back to the master without mapreduce importing shard.
var shardMeterFn atomic.Pointer[func() int64]

// SetShardMeter registers the process-wide shard read meter sampled
// around every task a TCP worker executes. The sampled start/end pair
// travels on result messages (gob and wire v3) so a master in another
// process can fold external workers' shard reads into
// Counters.ShardReadBytes.
func SetShardMeter(f func() int64) {
	shardMeterFn.Store(&f)
}

func shardMeterNow() int64 {
	if f := shardMeterFn.Load(); f != nil {
		return (*f)()
	}
	return 0
}

// processToken identifies this process in result-message shard meters.
// The master skips reports carrying its own token: in-process workers
// share the driver's meter, which the sharded driver already reads
// directly, so folding their reports in would double-count.
var processToken = newProcessToken()

// workerShardToken is the token workers stamp on results — normally
// processToken; tests split the two to exercise the external-worker
// aggregation path inside one process.
var workerShardToken = processToken

func newProcessToken() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(os.Getpid())<<1 | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// sendHello performs the worker side of the handshake: greet with our
// maximum version, read back the master's choice.
func sendHello(conn net.Conn, maxVersion byte, timeout time.Duration, st *wireStats) (byte, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, err
	}
	var hello [helloLen]byte
	copy(hello[:], wireMagic[:])
	hello[len(wireMagic)] = maxVersion
	if _, err := conn.Write(hello[:]); err != nil {
		return 0, fmt.Errorf("mapreduce: send hello: %w", err)
	}
	var reply [1]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		return 0, fmt.Errorf("mapreduce: read hello reply: %w", err)
	}
	st.bytesOut.Add(int64(helloLen))
	st.bytesIn.Add(1)
	v := reply[0]
	if v < WireVersionGob || v > maxVersion {
		return 0, fmt.Errorf("mapreduce: master chose unusable wire version %d", v)
	}
	// The handshake deadline is done; task reads are unbounded (an idle
	// worker waits indefinitely) and writes are re-bounded per result.
	return v, conn.SetDeadline(time.Time{})
}

// acceptHello performs the master side of the handshake and returns
// the negotiated version.
func acceptHello(conn net.Conn, ourMax byte, timeout time.Duration, st *wireStats) (byte, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, err
	}
	var hello [helloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, fmt.Errorf("mapreduce: read hello: %w", err)
	}
	if [4]byte(hello[:4]) != wireMagic {
		return 0, errors.New("mapreduce: peer is not a DASC worker (bad hello magic)")
	}
	theirMax := hello[len(wireMagic)]
	if theirMax < WireVersionGob {
		return 0, fmt.Errorf("mapreduce: worker advertises unusable wire version %d", theirMax)
	}
	v := min(theirMax, ourMax)
	if _, err := conn.Write([]byte{v}); err != nil {
		return 0, fmt.Errorf("mapreduce: send hello reply: %w", err)
	}
	st.bytesIn.Add(int64(helloLen))
	st.bytesOut.Add(1)
	return v, conn.SetDeadline(time.Time{})
}

// ---- version 1: gob ----

// countingWriter / countingReader meter the raw stream for the gob
// codec, which cannot size its own messages.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// gobCodec is wire version 1. The encoder/decoder pair must live as
// long as the connection: gob streams are stateful, so a fresh encoder
// would resend type definitions and corrupt the peer's decoder state.
type gobCodec struct {
	enc *gob.Encoder
	dec *gob.Decoder
	st  *wireStats
}

func newGobCodec(conn net.Conn, st *wireStats) *gobCodec {
	return &gobCodec{
		enc: gob.NewEncoder(&countingWriter{w: conn, n: &st.bytesOut}),
		dec: gob.NewDecoder(&countingReader{r: conn, n: &st.bytesIn}),
		st:  st,
	}
}

func (c *gobCodec) encode(v any) (int, error) {
	before := c.st.bytesOut.Load()
	start := time.Now()
	err := c.enc.Encode(v)
	c.st.encodeNanos.Add(time.Since(start).Nanoseconds())
	return int(c.st.bytesOut.Load() - before), err
}

func (c *gobCodec) decode(v any) (int, error) {
	before := c.st.bytesIn.Load()
	start := time.Now()
	err := c.dec.Decode(v)
	c.st.decodeNanos.Add(time.Since(start).Nanoseconds())
	return int(c.st.bytesIn.Load() - before), err
}

func (c *gobCodec) writeTask(t *taskMsg) (int, error)     { return c.encode(t) }
func (c *gobCodec) readTask(t *taskMsg) (int, error)      { return c.decode(t) }
func (c *gobCodec) writeResult(r *resultMsg) (int, error) { return c.encode(r) }
func (c *gobCodec) readResult(r *resultMsg) (int, error)  { return c.decode(r) }
func (c *gobCodec) setCompress(bool)                      {}

// ---- version 2: length-prefixed binary frames ----

// encBuf is the pooled encode scratch; frames reuse its backing array
// so steady-state encoding allocates nothing.
type encBuf struct{ b []byte }

var encBufPool = sync.Pool{
	New: func() any { return &encBuf{b: make([]byte, 0, 4096)} },
}

// frameCodec is wire versions 2 and 3; version selects which frame
// kinds writeTask/writeResult may emit. compress is flipped per job by
// setCompress (atomically: the pipelined worker reads tasks and writes
// results from different goroutines) and only honored at version >= 3.
type frameCodec struct {
	w        io.Writer
	br       *bufio.Reader
	st       *wireStats
	version  byte
	compress atomic.Bool
}

func newFrameCodec(conn net.Conn, version byte, st *wireStats) *frameCodec {
	return &frameCodec{w: conn, br: bufio.NewReaderSize(conn, 1<<16), st: st, version: version}
}

func (c *frameCodec) setCompress(on bool) { c.compress.Store(on) }

// flateWriterPool / flateReaderPool reuse codec state across frames and
// spill runs; a flate.Writer alone is ~600KB of window and tables.
var flateWriterPool = sync.Pool{
	New: func() any {
		fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			// flate.NewWriter only fails on an invalid level; BestSpeed
			// is valid by construction.
			panic(err) //lint:ignore panicfree invalid-level is impossible for flate.BestSpeed
		}
		return fw
	},
}

var flateReaderPool = sync.Pool{
	New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
}

// sliceWriter adapts an append target to io.Writer for flate.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// hdrReserve leaves room at the buffer front for the length prefix.
const hdrReserve = binary.MaxVarintLen64

// sendFrame serializes body (appended by fill after the kind byte),
// prefixes its length, and writes the frame with a single Write. size
// is the exact number of bytes fill appends, so the pooled buffer grows
// at most once per frame however large the payload. At
// wire v3 with compression enabled, bodies at or above
// CompressThreshold are deflated into a 'C' wrapper frame when that
// actually shrinks them.
func (c *frameCodec) sendFrame(kind byte, size int, fill func(b []byte) []byte) (int, error) {
	eb := encBufPool.Get().(*encBuf)
	start := time.Now()
	b := slices.Grow(eb.b[:0], hdrReserve+1+size)[:hdrReserve]
	b = append(b, kind)
	b = fill(b)
	bodyLen := len(b) - hdrReserve
	c.st.encodeNanos.Add(time.Since(start).Nanoseconds())
	if c.version >= WireVersionPacked && c.compress.Load() && bodyLen >= CompressThreshold {
		if n, err, ok := c.sendCompressed(b[hdrReserve:]); ok {
			eb.b = b
			encBufPool.Put(eb)
			return n, err
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(bodyLen))
	frameStart := hdrReserve - n
	copy(b[frameStart:hdrReserve], tmp[:n])
	nw, err := c.w.Write(b[frameStart:])
	c.st.bytesOut.Add(int64(nw))
	eb.b = b
	encBufPool.Put(eb)
	return n + bodyLen, err
}

// sendCompressed writes raw (a full frame body including its kind byte)
// as a 'C' wrapper frame. ok is false when deflate failed to shrink the
// body, in which case nothing was written and the caller ships it raw.
func (c *frameCodec) sendCompressed(raw []byte) (int, error, bool) {
	cb := encBufPool.Get().(*encBuf)
	start := time.Now()
	sw := &sliceWriter{b: append(cb.b[:0], make([]byte, hdrReserve)...)}
	sw.b = append(sw.b, frameCompressed)
	sw.b = binary.AppendUvarint(sw.b, uint64(len(raw)))
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(sw)
	_, werr := fw.Write(raw)
	cerr := fw.Close()
	flateWriterPool.Put(fw)
	c.st.compressNanos.Add(time.Since(start).Nanoseconds())
	if werr != nil || cerr != nil {
		cb.b = sw.b
		encBufPool.Put(cb)
		return 0, errors.Join(werr, cerr), true
	}
	bodyLen := len(sw.b) - hdrReserve
	if bodyLen >= len(raw) {
		cb.b = sw.b
		encBufPool.Put(cb)
		return 0, nil, false
	}
	b := sw.b
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(bodyLen))
	frameStart := hdrReserve - n
	copy(b[frameStart:hdrReserve], tmp[:n])
	nw, err := c.w.Write(b[frameStart:])
	c.st.bytesOut.Add(int64(nw))
	c.st.compressSaved.Add(int64(len(raw) - bodyLen))
	cb.b = b
	encBufPool.Put(cb)
	return n + bodyLen, err, true
}

// recvFrame reads one frame and returns its kind, body, and total wire
// size. A 'C' wrapper is inflated transparently; kind and body then
// describe the inner frame while size stays the bytes actually read
// off the wire. The body is freshly allocated per frame; decoded
// records alias it, so it must not be pooled.
func (c *frameCodec) recvFrame() (byte, []byte, int, error) {
	bodyLen, err := binary.ReadUvarint(c.br)
	if err != nil {
		return 0, nil, 0, err
	}
	if bodyLen < 1 || bodyLen > maxFrameBody {
		return 0, nil, 0, fmt.Errorf("mapreduce: frame body length %d out of range", bodyLen)
	}
	body, err := readExactly(c.br, int(bodyLen))
	if err != nil {
		return 0, nil, 0, fmt.Errorf("mapreduce: short frame: %w", err)
	}
	size := uvarintLen(bodyLen) + int(bodyLen)
	c.st.bytesIn.Add(int64(size))
	if body[0] == frameCompressed {
		inner, err := c.inflateFrame(body[1:])
		if err != nil {
			return 0, nil, size, err
		}
		return inner[0], inner[1:], size, nil
	}
	return body[0], body[1:], size, nil
}

// inflateFrame decodes a 'C' wrapper payload: uvarint raw length, then
// the deflated inner frame body. The declared length is validated
// before any allocation and the stream must inflate to exactly that
// many bytes — a wrapper that lies about its size, truncates, carries
// trailing garbage, or nests another wrapper is an error, never a
// panic or an oversized allocation.
func (c *frameCodec) inflateFrame(p []byte) ([]byte, error) {
	rawLen, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, errors.New("mapreduce: compressed frame: bad raw length")
	}
	if rawLen < 1 || rawLen > maxFrameBody {
		return nil, fmt.Errorf("mapreduce: compressed frame raw length %d out of range", rawLen)
	}
	start := time.Now()
	zr := flateReaderPool.Get().(io.ReadCloser)
	defer flateReaderPool.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(p[w:]), nil); err != nil {
		return nil, err
	}
	raw, err := readExactly(zr, int(rawLen))
	if err != nil {
		return nil, fmt.Errorf("mapreduce: compressed frame: %w", err)
	}
	var one [1]byte
	if n, err := zr.Read(one[:]); n != 0 || (err != nil && err != io.EOF) {
		return nil, errors.New("mapreduce: compressed frame longer than declared")
	}
	c.st.compressNanos.Add(time.Since(start).Nanoseconds())
	c.st.compressSaved.Add(int64(rawLen) - int64(len(p)))
	if raw[0] == frameCompressed {
		return nil, errors.New("mapreduce: nested compressed frame")
	}
	return raw, nil
}

// readChunk caps readExactly's first allocation, and with it what a
// frame that never arrives can cost.
const readChunk = 64 << 10

// readExactly reads exactly n bytes. The buffer starts at n halved
// until it fits one readChunk and doubles back up to n, each time only
// once it is full, reading straight into the grown buffer. The sizes
// are n/2ᵏ, …, n/2, n, so however large the body is it is copied less
// than once in total and all allocations together stay under 2n; and
// since every buffer after the first is (at most one byte over) twice
// the bytes that have actually arrived, a corrupt or hostile length
// prefix that promises a gigabyte backed by a short stream fails after
// a few chunks instead of reserving the declared size up front.
func readExactly(r io.Reader, n int) ([]byte, error) {
	halvings := 0
	for n>>halvings > readChunk {
		halvings++
	}
	buf := make([]byte, n>>halvings)
	got := 0
	for {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err != nil {
			return nil, err
		}
		if halvings == 0 {
			return buf, nil
		}
		halvings--
		grown := make([]byte, n>>halvings)
		copy(grown, buf)
		buf = grown
	}
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendWireBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// wireFieldSize is the encoded size of an n-byte str/bytes field.
func wireFieldSize(n int) int { return uvarintLen(uint64(n)) + n }

// taskFrame picks the frame kind t travels in at this codec's version
// and computes the exact size of the fields writeTask appends after the
// kind byte.
func (c *frameCodec) taskFrame(t *taskMsg) (kind byte, size int) {
	kind = frameTask
	size = uvarintLen(uint64(t.Seq)) + wireFieldSize(len(t.JobName)) + wireFieldSize(len(t.Phase)) +
		wireFieldSize(len(t.Conf)) + uvarintLen(uint64(t.NumReducers)) + pairsWireSize(t.Records)
	if c.version >= WireVersionPacked && t.Flags != 0 {
		kind = frameTaskFlags
		size += uvarintLen(t.Flags)
	}
	return kind, size
}

func (c *frameCodec) writeTask(t *taskMsg) (int, error) {
	kind, size := c.taskFrame(t)
	return c.sendFrame(kind, size, func(b []byte) []byte {
		if kind == frameTaskFlags {
			b = binary.AppendUvarint(b, t.Flags)
		}
		b = binary.AppendUvarint(b, uint64(t.Seq))
		b = appendWireString(b, t.JobName)
		b = appendWireString(b, t.Phase)
		b = appendWireBytes(b, t.Conf)
		b = binary.AppendUvarint(b, uint64(t.NumReducers))
		return appendPairs(b, t.Records)
	})
}

// resultFrame is taskFrame's counterpart for writeResult.
func (c *frameCodec) resultFrame(r *resultMsg) (kind byte, size int) {
	kind = frameResult
	size = uvarintLen(uint64(r.Seq)) + wireFieldSize(len(r.Err)) + uvarintLen(uint64(len(r.Parts)))
	for _, part := range r.Parts {
		size += pairsWireSize(part)
	}
	if c.version >= WireVersionPacked && r.ShardTok != 0 {
		kind = frameResultIO
		size += uvarintLen(r.ShardTok) + uvarintLen(uint64(max(r.ShardStart, 0))) + uvarintLen(uint64(max(r.ShardEnd, 0)))
	}
	return kind, size
}

func (c *frameCodec) writeResult(r *resultMsg) (int, error) {
	kind, size := c.resultFrame(r)
	return c.sendFrame(kind, size, func(b []byte) []byte {
		if kind == frameResultIO {
			b = binary.AppendUvarint(b, r.ShardTok)
			b = binary.AppendUvarint(b, uint64(max(r.ShardStart, 0)))
			b = binary.AppendUvarint(b, uint64(max(r.ShardEnd, 0)))
		}
		b = binary.AppendUvarint(b, uint64(r.Seq))
		b = appendWireString(b, r.Err)
		b = binary.AppendUvarint(b, uint64(len(r.Parts)))
		for _, part := range r.Parts {
			b = appendPairs(b, part)
		}
		return b
	})
}

func appendPairs(b []byte, pairs []Pair) []byte {
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = appendWireString(b, p.Key)
		b = appendWireBytes(b, p.Value)
	}
	return b
}

// pairsWireSize is the exact number of bytes appendPairs appends.
func pairsWireSize(pairs []Pair) int {
	size := uvarintLen(uint64(len(pairs)))
	for _, p := range pairs {
		size += int(pairDiskBytes(p))
	}
	return size
}

func (c *frameCodec) readTask(t *taskMsg) (int, error) {
	kind, body, size, err := c.recvFrame()
	if err != nil {
		return size, err
	}
	if kind != frameTask && kind != frameTaskFlags {
		return size, fmt.Errorf("mapreduce: expected task frame, got %q", kind)
	}
	start := time.Now()
	err = parseTask(body, t, kind == frameTaskFlags)
	c.st.decodeNanos.Add(time.Since(start).Nanoseconds())
	return size, err
}

func (c *frameCodec) readResult(r *resultMsg) (int, error) {
	kind, body, size, err := c.recvFrame()
	if err != nil {
		return size, err
	}
	if kind != frameResult && kind != frameResultIO {
		return size, fmt.Errorf("mapreduce: expected result frame, got %q", kind)
	}
	start := time.Now()
	err = parseResult(body, r, kind == frameResultIO)
	c.st.decodeNanos.Add(time.Since(start).Nanoseconds())
	return size, err
}

// parser consumes a frame body; the first malformed field latches err
// and turns the remaining reads into no-ops.
type parser struct {
	b   []byte
	err error
}

func (p *parser) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("mapreduce: malformed frame: %s", what)
	}
}

func (p *parser) uvarint(what string) uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.fail(what)
		return 0
	}
	p.b = p.b[n:]
	return v
}

// count reads a length field that sizes max-byte elements, rejecting
// values the remaining body cannot possibly hold.
func (p *parser) count(what string) int {
	v := p.uvarint(what)
	if p.err == nil && v > uint64(len(p.b)) {
		p.fail(what + " overruns frame")
		return 0
	}
	return int(v)
}

// bytes returns the next length-prefixed field aliased into the body
// (nil when empty, matching a gob round trip of an empty slice).
func (p *parser) bytes(what string) []byte {
	n := p.count(what)
	if p.err != nil || n == 0 {
		return nil
	}
	v := p.b[:n:n]
	p.b = p.b[n:]
	return v
}

func (p *parser) str(what string) string {
	return string(p.bytes(what))
}

func (p *parser) intField(what string) int {
	v := p.uvarint(what)
	if v > math.MaxInt32 {
		p.fail(what + " overflows")
		return 0
	}
	return int(v)
}

func (p *parser) pairs(what string) []Pair {
	n := p.count(what)
	if p.err != nil || n == 0 {
		return nil
	}
	out := make([]Pair, n)
	for i := range out {
		out[i].Key = p.str("record key")
		out[i].Value = p.bytes("record value")
		if p.err != nil {
			return nil
		}
	}
	return out
}

// done rejects trailing garbage after the last field.
func (p *parser) done() error {
	if p.err == nil && len(p.b) != 0 {
		p.fail(fmt.Sprintf("%d trailing bytes", len(p.b)))
	}
	return p.err
}

func parseTask(body []byte, t *taskMsg, withFlags bool) error {
	p := &parser{b: body}
	t.Flags = 0
	if withFlags {
		t.Flags = p.uvarint("task flags")
	}
	t.Seq = p.intField("task seq")
	t.JobName = p.str("job name")
	t.Phase = p.str("phase")
	t.Conf = p.bytes("conf")
	t.NumReducers = p.intField("num reducers")
	t.Records = p.pairs("records")
	return p.done()
}

func parseResult(body []byte, r *resultMsg, withIO bool) error {
	p := &parser{b: body}
	r.ShardTok, r.ShardStart, r.ShardEnd = 0, 0, 0
	if withIO {
		r.ShardTok = p.uvarint("shard token")
		r.ShardStart = int64(p.uvarint("shard meter start"))
		r.ShardEnd = int64(p.uvarint("shard meter end"))
	}
	r.Seq = p.intField("result seq")
	r.Err = p.str("result error")
	nParts := p.count("parts")
	r.Parts = nil
	if p.err == nil && nParts > 0 {
		r.Parts = make([][]Pair, nParts)
		for i := range r.Parts {
			r.Parts[i] = p.pairs("part")
			if p.err != nil {
				break
			}
		}
	}
	return p.done()
}

// ---- embed bucket records ----

// Stage-2 record kinds for the embed-and-conquer DASC deployment. When
// embed mode is on, every stage-2 value leads with one of these bytes
// so a reducer can tell an embedded-rows record from a raw payload. (A
// gob stream may begin with any byte, so the discriminator only means
// anything when the job's configuration says embed mode is on; legacy
// jobs ship bare payloads with no kind byte.)
const (
	// EmbedBucketKind opens an embedded bucket record: the bucket's
	// points already pushed through the kernel feature map map-side,
	// shipped as d′-dimensional rows instead of raw vectors.
	EmbedBucketKind = 'E'
	// RawBucketKind opens a raw bucket payload (a gob blob follows) for
	// buckets the embed policy declined.
	RawBucketKind = 'B'
	// PackedEmbedBucketKind opens the compact form of an embedded
	// bucket record: row indices as zigzag varint deltas over the
	// sorted-by-construction index list instead of fixed uint32s.
	// Emitted only when the job's Compression knob is on.
	PackedEmbedBucketKind = 'e'
)

// AppendEmbedBucket appends one embedded bucket record to dst and
// returns the extended slice:
//
//	kind 'E' │ uvarint n │ uvarint dim │ n × uint32 LE index │
//	n·dim × float64 LE embedded rows (row-major)
//
// len(rows) must equal len(indices)*dim; the codec is pure layout and
// does not validate semantics beyond that.
func AppendEmbedBucket(dst []byte, indices []int32, dim int, rows []float64) []byte {
	dst = append(dst, EmbedBucketKind)
	dst = binary.AppendUvarint(dst, uint64(len(indices)))
	dst = binary.AppendUvarint(dst, uint64(dim))
	var b4 [4]byte
	for _, idx := range indices {
		binary.LittleEndian.PutUint32(b4[:], uint32(idx))
		dst = append(dst, b4[:]...)
	}
	var b8 [8]byte
	for _, v := range rows {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		dst = append(dst, b8[:]...)
	}
	return dst
}

// ParseEmbedBucket decodes a record produced by AppendEmbedBucket,
// validating the kind byte and that the payload length matches the
// declared shape exactly. The returned slices are freshly allocated and
// do not alias buf.
func ParseEmbedBucket(buf []byte) ([]int32, int, []float64, error) {
	if len(buf) == 0 || buf[0] != EmbedBucketKind {
		return nil, 0, nil, errors.New("mapreduce: not an embed bucket record")
	}
	b := buf[1:]
	nu, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, 0, nil, errors.New("mapreduce: embed record: bad point count")
	}
	b = b[w:]
	du, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, 0, nil, errors.New("mapreduce: embed record: bad dimension")
	}
	b = b[w:]
	if nu == 0 || du == 0 || nu > maxFrameBody/4 || du > maxFrameBody/8 {
		return nil, 0, nil, fmt.Errorf("mapreduce: embed record shape %d x %d out of range", nu, du)
	}
	n, dim := int(nu), int(du)
	// The length check precedes any allocation, so a hostile header
	// cannot make the parser reserve more than the record it arrived in.
	if need := 4*n + 8*n*dim; len(b) != need || need/n != 4+8*dim {
		return nil, 0, nil, fmt.Errorf("mapreduce: embed record: %d payload bytes for %d x %d", len(b), n, dim)
	}
	indices := make([]int32, n)
	for i := range indices {
		indices[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	b = b[4*n:]
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return indices, dim, rows, nil
}

// AppendPackedEmbedBucket appends the compact embedded-bucket form:
//
//	kind 'e' │ uvarint n │ uvarint dim │ n × zigzag-varint index delta │
//	n·dim × float64 LE embedded rows (row-major)
//
// Deltas are taken over the indices as given (bucket indices are sorted
// ascending, so deltas are small and positive); zigzag keeps any order
// decodable. Same semantics contract as AppendEmbedBucket.
func AppendPackedEmbedBucket(dst []byte, indices []int32, dim int, rows []float64) []byte {
	dst = append(dst, PackedEmbedBucketKind)
	dst = binary.AppendUvarint(dst, uint64(len(indices)))
	dst = binary.AppendUvarint(dst, uint64(dim))
	prev := int64(0)
	for _, idx := range indices {
		delta := int64(idx) - prev
		dst = binary.AppendUvarint(dst, uint64(delta)<<1^uint64(delta>>63))
		prev = int64(idx)
	}
	var b8 [8]byte
	for _, v := range rows {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		dst = append(dst, b8[:]...)
	}
	return dst
}

// ParsePackedEmbedBucket decodes a record produced by
// AppendPackedEmbedBucket with the same hostile-input posture as
// ParseEmbedBucket: shape is validated before any allocation, every
// index must round-trip through int32, and the float payload must
// match the declared shape exactly.
func ParsePackedEmbedBucket(buf []byte) ([]int32, int, []float64, error) {
	if len(buf) == 0 || buf[0] != PackedEmbedBucketKind {
		return nil, 0, nil, errors.New("mapreduce: not a packed embed bucket record")
	}
	b := buf[1:]
	nu, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, 0, nil, errors.New("mapreduce: packed embed record: bad point count")
	}
	b = b[w:]
	du, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, 0, nil, errors.New("mapreduce: packed embed record: bad dimension")
	}
	b = b[w:]
	if nu == 0 || du == 0 || nu > maxFrameBody/4 || du > maxFrameBody/8 {
		return nil, 0, nil, fmt.Errorf("mapreduce: packed embed record shape %d x %d out of range", nu, du)
	}
	n, dim := int(nu), int(du)
	// Each index delta costs at least one byte, so the record must hold
	// n delta bytes plus the full float payload; checking against the
	// actual record length before allocating bounds both slices by the
	// bytes that really arrived.
	if need := n + 8*n*dim; len(b) < need || need/n != 1+8*dim {
		return nil, 0, nil, fmt.Errorf("mapreduce: packed embed record: %d payload bytes for %d x %d", len(b), n, dim)
	}
	indices := make([]int32, n)
	prev := int64(0)
	for i := range indices {
		zz, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, 0, nil, errors.New("mapreduce: packed embed record: bad index delta")
		}
		b = b[w:]
		delta := int64(zz>>1) ^ -int64(zz&1)
		prev += delta
		if prev < 0 || prev > math.MaxInt32 {
			return nil, 0, nil, fmt.Errorf("mapreduce: packed embed record: index %d out of range", prev)
		}
		indices[i] = int32(prev)
	}
	if len(b) != 8*n*dim {
		return nil, 0, nil, fmt.Errorf("mapreduce: packed embed record: %d float bytes for %d x %d", len(b), n, dim)
	}
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return indices, dim, rows, nil
}

// ParseAnyEmbedBucket dispatches on the record's kind byte to the raw
// or packed embed decoder, accepting either framing.
func ParseAnyEmbedBucket(buf []byte) ([]int32, int, []float64, error) {
	if len(buf) > 0 && buf[0] == PackedEmbedBucketKind {
		return ParsePackedEmbedBucket(buf)
	}
	return ParseEmbedBucket(buf)
}

// WireRoundTrip encodes msg-shaped record traffic through the frame
// codec and decodes it back over an in-memory pipe, returning the
// frame's wire size — the dascbench hook for the codec hot path and a
// self-test that the framing is invertible.
func WireRoundTrip(pairs []Pair) (int, error) {
	n, _, err := WireRoundTripOpts(pairs, false)
	return n, err
}

// WireRoundTripOpts is WireRoundTrip with the v3 compression path
// switchable; it additionally returns the raw (uncompressed) frame
// size so callers can report the achieved ratio.
func WireRoundTripOpts(pairs []Pair, compress bool) (wireSize, rawSize int, err error) {
	var st wireStats
	var buf writeBuffer
	enc := &frameCodec{w: &buf, st: &st, version: WireVersionPacked}
	enc.compress.Store(compress)
	in := resultMsg{Seq: 1, Parts: [][]Pair{pairs}}
	n, err := enc.writeResult(&in)
	if err != nil {
		return n, n, err
	}
	raw := n + int(st.compressSaved.Load())
	dec := &frameCodec{br: bufio.NewReader(&buf), st: &st, version: WireVersionPacked}
	var out resultMsg
	if _, err := dec.readResult(&out); err != nil {
		return n, raw, err
	}
	if len(out.Parts) != 1 || len(out.Parts[0]) != len(pairs) {
		return n, raw, errors.New("mapreduce: wire round trip changed record count")
	}
	return n, raw, nil
}

// writeBuffer is a minimal in-memory io.Writer+Reader for WireRoundTrip.
type writeBuffer struct {
	b   []byte
	off int
}

func (w *writeBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *writeBuffer) Read(p []byte) (int, error) {
	if w.off >= len(w.b) {
		return 0, io.EOF
	}
	n := copy(p, w.b[w.off:])
	w.off += n
	return n, nil
}
