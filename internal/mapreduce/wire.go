package mapreduce

// The TCP executor's wire protocol. A connection opens with a hello —
// the worker sends the four magic bytes "DASC" and its wire version,
// the master answers with its own version byte — and a peer whose
// version is not exactly ours is refused. After the hello the
// connection carries length-prefixed binary frames:
//
//	uvarint bodyLen │ body
//	body = kind byte │ fields
//
//	'T' task   = uvarint Flags │ uvarint Seq │ str JobName │ str Phase │
//	             bytes Conf │ uvarint NumReducers │
//	             uvarint nRecords │ nRecords × (str Key │ bytes Val)
//	             Flags bit 0 tells the worker to compress its result
//	             frames back.
//	'R' result = uvarint ShardTok │ uvarint ShardStart │ uvarint ShardEnd │
//	             uvarint Seq │ str Err │ uvarint nParts │
//	             nParts × (uvarint nPairs │ nPairs × pair)
//	             The three leading fields carry the worker's
//	             process-cumulative shard read meter, so external
//	             workers' shard bytes reach the master's Counters (the
//	             master de-duplicates by process token); all zero when
//	             the worker has read no shard.
//	'C' wrapper = uvarint rawLen │ flate(inner body incl. kind)
//	             Wraps any frame whose body reaches CompressThreshold
//	             while the job has Compress on, when deflate shrinks it.
//	             rawLen is validated against maxFrameBody before any
//	             allocation, the inflated size must match it exactly,
//	             and a 'C' inside a 'C' is rejected.
//
//	str/bytes = uvarint length │ raw bytes
//
// Frames need no per-record reflection: encoding appends into a pooled
// scratch buffer sized exactly up front (one Write per frame), decoding
// reads the exact body and aliases record values into it (one
// allocation per frame plus the key strings). The codec accounts bytes
// and serialization wall time into per-connection wireStats, which the
// master aggregates into Counters.WireBytes* / *Nanos.

import (
	"bufio"
	"bytes"
	"compress/flate"
	crand "crypto/rand"
	"encoding/binary"
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

// wireVersion is the one framing this build speaks. It is not
// negotiated: the number exists so that a peer built from another
// revision of the protocol is refused at the hello instead of
// misparsing frames. (1–3 were the gob stream and the two frame
// layouts of earlier releases.)
const wireVersion = 4

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

// helloLen is magic + the sender's version byte.
const helloLen = len(wireMagic) + 1

// maxFrameBody caps a decoded frame body, protecting the master from a
// corrupt or hostile length prefix.
const maxFrameBody = 1 << 30

// frame body kinds.
const (
	frameTask       = 'T'
	frameResult     = 'R'
	frameCompressed = 'C' // flate-wrapped inner frame
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

// ---- worker shard metering ----

// shardMeterFn reports a process-cumulative count of shard bytes read;
// internal/core registers its shard-reader meter here so workers can
// ship the delta back to the master without mapreduce importing shard.
var shardMeterFn atomic.Pointer[func() int64]

// SetShardMeter registers the process-wide shard read meter sampled
// around every task a TCP worker executes. The sampled start/end pair
// travels on result frames so a master in another process can fold
// external workers' shard reads into Counters.ShardReadBytes.
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
// version, read back the master's, and refuse a master that speaks
// another.
func sendHello(conn net.Conn, timeout time.Duration, st *wireStats) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	var hello [helloLen]byte
	copy(hello[:], wireMagic[:])
	hello[len(wireMagic)] = wireVersion
	if _, err := conn.Write(hello[:]); err != nil {
		return fmt.Errorf("mapreduce: send hello: %w", err)
	}
	var reply [1]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		return fmt.Errorf("mapreduce: read hello reply: %w", err)
	}
	st.bytesOut.Add(int64(helloLen))
	st.bytesIn.Add(1)
	if reply[0] != wireVersion {
		return fmt.Errorf("mapreduce: master speaks wire version %d, this worker speaks %d", reply[0], wireVersion)
	}
	// The handshake deadline is done; task reads are unbounded (an idle
	// worker waits indefinitely) and writes are re-bounded per result.
	return conn.SetDeadline(time.Time{})
}

// acceptHello performs the master side of the handshake: check the
// magic, answer with our version — so a mismatched worker can name both
// in its own error — and refuse a worker that speaks another.
func acceptHello(conn net.Conn, timeout time.Duration, st *wireStats) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	var hello [helloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return fmt.Errorf("mapreduce: read hello: %w", err)
	}
	if [4]byte(hello[:4]) != wireMagic {
		return errors.New("mapreduce: peer is not a DASC worker (bad hello magic)")
	}
	if _, err := conn.Write([]byte{wireVersion}); err != nil {
		return fmt.Errorf("mapreduce: send hello reply: %w", err)
	}
	st.bytesIn.Add(int64(helloLen))
	st.bytesOut.Add(1)
	if theirs := hello[len(wireMagic)]; theirs != wireVersion {
		return fmt.Errorf("mapreduce: worker speaks wire version %d, this master speaks %d", theirs, wireVersion)
	}
	return conn.SetDeadline(time.Time{})
}

// ---- frames ----

// encBuf is the pooled encode scratch; frames reuse its backing array
// so steady-state encoding allocates nothing.
type encBuf struct{ b []byte }

var encBufPool = sync.Pool{
	New: func() any { return &encBuf{b: make([]byte, 0, 4096)} },
}

// frameCodec reads and writes task/result frames on one connection;
// every read/write method returns the frame's size in wire bytes. It is
// safe for one concurrent reader plus one concurrent writer (the
// pipelined connection split), not for two of either. compress turns
// outbound 'C' wrapping on or off and is flipped per job (atomically:
// the pipelined worker reads tasks and writes results from different
// goroutines); inbound 'C' frames are always understood.
type frameCodec struct {
	w        io.Writer
	br       *bufio.Reader
	st       *wireStats
	compress atomic.Bool
}

func newFrameCodec(conn net.Conn, st *wireStats) *frameCodec {
	return &frameCodec{w: conn, br: bufio.NewReaderSize(conn, 1<<16), st: st}
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

// errNoShrink is how sliceWriter stops a deflate pass whose output has
// already outgrown the raw body.
var errNoShrink = errors.New("mapreduce: deflate did not shrink the frame")

// sliceWriter adapts an append target to io.Writer for flate. It never
// grows its buffer: output that does not fit the capacity it was given
// is refused with errNoShrink.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	if len(p) > cap(s.b)-len(s.b) {
		return 0, errNoShrink
	}
	s.b = append(s.b, p...)
	return len(p), nil
}

// hdrReserve leaves room at the buffer front for the length prefix.
const hdrReserve = binary.MaxVarintLen64

// writeFrame prefixes b[hdrReserve:] with its length inside the reserved
// front of b and writes the frame with a single Write, returning the
// frame's wire size.
func (c *frameCodec) writeFrame(b []byte) (int, error) {
	bodyLen := len(b) - hdrReserve
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(bodyLen))
	frameStart := hdrReserve - n
	copy(b[frameStart:hdrReserve], tmp[:n])
	nw, err := c.w.Write(b[frameStart:])
	c.st.bytesOut.Add(int64(nw))
	return n + bodyLen, err
}

// sendFrame serializes body (appended by fill after the kind byte) and
// writes it as one frame. size is the exact number of bytes fill
// appends, so the pooled buffer grows at most once per frame however
// large the payload. With compression enabled, bodies at or above
// CompressThreshold are deflated into a 'C' wrapper frame when that
// actually shrinks them.
func (c *frameCodec) sendFrame(kind byte, size int, fill func(b []byte) []byte) (int, error) {
	eb := encBufPool.Get().(*encBuf)
	defer encBufPool.Put(eb)
	start := time.Now()
	b := slices.Grow(eb.b[:0], hdrReserve+1+size)[:hdrReserve]
	b = append(b, kind)
	b = fill(b)
	eb.b = b
	c.st.encodeNanos.Add(time.Since(start).Nanoseconds())
	if c.compress.Load() && len(b)-hdrReserve >= CompressThreshold {
		if n, err, ok := c.sendCompressed(b[hdrReserve:]); ok {
			return n, err
		}
	}
	return c.writeFrame(b)
}

// sendCompressed writes raw (a full frame body including its kind byte)
// as a 'C' wrapper frame. ok is false when deflate failed to shrink the
// body, in which case nothing was written and the caller ships it raw.
// The wrapper is built in a pooled buffer given len(raw) capacity up
// front — a wrapper that would reach len(raw) is discarded anyway, so
// the sliceWriter refuses it — and so costs at most one growth.
func (c *frameCodec) sendCompressed(raw []byte) (int, error, bool) {
	cb := encBufPool.Get().(*encBuf)
	defer encBufPool.Put(cb)
	start := time.Now()
	sw := &sliceWriter{b: slices.Grow(cb.b[:0], hdrReserve+len(raw))[:hdrReserve]}
	sw.b = append(sw.b, frameCompressed)
	sw.b = binary.AppendUvarint(sw.b, uint64(len(raw)))
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(sw)
	_, werr := fw.Write(raw)
	cerr := fw.Close()
	flateWriterPool.Put(fw)
	cb.b = sw.b
	c.st.compressNanos.Add(time.Since(start).Nanoseconds())
	if err := errors.Join(werr, cerr); err != nil {
		return 0, err, !errors.Is(err, errNoShrink)
	}
	bodyLen := len(sw.b) - hdrReserve
	if bodyLen >= len(raw) {
		return 0, nil, false
	}
	n, err := c.writeFrame(sw.b)
	c.st.compressSaved.Add(int64(len(raw) - bodyLen))
	return n, err, true
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

// taskSize is the exact number of bytes writeTask appends after the kind
// byte.
func taskSize(t *taskMsg) int {
	return uvarintLen(t.Flags) + uvarintLen(uint64(t.Seq)) + wireFieldSize(len(t.JobName)) +
		wireFieldSize(len(t.Phase)) + wireFieldSize(len(t.Conf)) + uvarintLen(uint64(t.NumReducers)) +
		pairsWireSize(t.Records)
}

func (c *frameCodec) writeTask(t *taskMsg) (int, error) {
	return c.sendFrame(frameTask, taskSize(t), func(b []byte) []byte {
		b = binary.AppendUvarint(b, t.Flags)
		b = binary.AppendUvarint(b, uint64(t.Seq))
		b = appendWireString(b, t.JobName)
		b = appendWireString(b, t.Phase)
		b = appendWireBytes(b, t.Conf)
		b = binary.AppendUvarint(b, uint64(t.NumReducers))
		return appendPairs(b, t.Records)
	})
}

// resultSize is taskSize's counterpart for writeResult.
func resultSize(r *resultMsg) int {
	size := uvarintLen(r.ShardTok) + uvarintLen(uint64(max(r.ShardStart, 0))) + uvarintLen(uint64(max(r.ShardEnd, 0))) +
		uvarintLen(uint64(r.Seq)) + wireFieldSize(len(r.Err)) + uvarintLen(uint64(len(r.Parts)))
	for _, part := range r.Parts {
		size += pairsWireSize(part)
	}
	return size
}

func (c *frameCodec) writeResult(r *resultMsg) (int, error) {
	return c.sendFrame(frameResult, resultSize(r), func(b []byte) []byte {
		b = binary.AppendUvarint(b, r.ShardTok)
		b = binary.AppendUvarint(b, uint64(max(r.ShardStart, 0)))
		b = binary.AppendUvarint(b, uint64(max(r.ShardEnd, 0)))
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
	if kind != frameTask {
		return size, fmt.Errorf("mapreduce: expected task frame, got %q", kind)
	}
	start := time.Now()
	err = parseTask(body, t)
	c.st.decodeNanos.Add(time.Since(start).Nanoseconds())
	return size, err
}

func (c *frameCodec) readResult(r *resultMsg) (int, error) {
	kind, body, size, err := c.recvFrame()
	if err != nil {
		return size, err
	}
	if kind != frameResult {
		return size, fmt.Errorf("mapreduce: expected result frame, got %q", kind)
	}
	start := time.Now()
	err = parseResult(body, r)
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

// bytes returns the next length-prefixed field aliased into the body,
// nil when empty (the Executor empty-value rule, see emptyToNil).
func (p *parser) bytes(what string) []byte {
	n := p.count(what)
	if p.err != nil {
		return nil
	}
	v := p.b[:n:n]
	p.b = p.b[n:]
	return emptyToNil(v)
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

func parseTask(body []byte, t *taskMsg) error {
	p := &parser{b: body}
	t.Flags = p.uvarint("task flags")
	t.Seq = p.intField("task seq")
	t.JobName = p.str("job name")
	t.Phase = p.str("phase")
	t.Conf = p.bytes("conf")
	t.NumReducers = p.intField("num reducers")
	t.Records = p.pairs("records")
	return p.done()
}

func parseResult(body []byte, r *resultMsg) error {
	p := &parser{b: body}
	r.ShardTok = p.uvarint("shard token")
	r.ShardStart = int64(p.uvarint("shard meter start"))
	r.ShardEnd = int64(p.uvarint("shard meter end"))
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

// WireRoundTripOpts encodes record traffic as one result frame, decodes
// it back over an in-memory stream and returns the frame's wire size and
// its raw (uncompressed) size — the benchmark's hook for the codec hot
// path and a self-test that the framing is invertible. compress routes
// the frame through the 'C' wrapper path.
func WireRoundTripOpts(pairs []Pair, compress bool) (wireSize, rawSize int, err error) {
	var st wireStats
	var buf writeBuffer
	enc := &frameCodec{w: &buf, st: &st}
	enc.compress.Store(compress)
	in := resultMsg{Seq: 1, Parts: [][]Pair{pairs}}
	n, err := enc.writeResult(&in)
	if err != nil {
		return n, n, err
	}
	raw := n + int(st.compressSaved.Load())
	dec := &frameCodec{br: bufio.NewReader(&buf), st: &st}
	var out resultMsg
	if _, err := dec.readResult(&out); err != nil {
		return n, raw, err
	}
	if len(out.Parts) != 1 || len(out.Parts[0]) != len(pairs) {
		return n, raw, errors.New("mapreduce: wire round trip changed record count")
	}
	return n, raw, nil
}

// writeBuffer is a minimal in-memory io.Writer+Reader for
// WireRoundTripOpts and the codec tests.
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
