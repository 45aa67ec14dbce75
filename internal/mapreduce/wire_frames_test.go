package mapreduce

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// compressiblePairs returns a pair slice whose framed body is large and
// repetitive enough that flate reliably shrinks it past
// CompressThreshold.
func compressiblePairs(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{
			Key:   "table-0:signature-aaaaaaaaaaaaaaaa",
			Value: bytes.Repeat([]byte{0x11, 0x22, 0x33, 0x44}, 16),
		}
	}
	return out
}

// codecPeers builds a connected encoder/decoder pair over an in-memory
// stream, with outbound compression set as requested.
func codecPeers(buf *writeBuffer, st *wireStats, compress bool) (enc, dec *frameCodec) {
	enc = &frameCodec{w: buf, st: st}
	enc.setCompress(compress)
	dec = &frameCodec{br: bufio.NewReader(buf), st: st}
	return enc, dec
}

// TestWireCompressedResultRoundTrip pushes a compressible result frame
// through the codec with compression on: the decode must be exact
// and the stats must show real savings.
func TestWireCompressedResultRoundTrip(t *testing.T) {
	in := resultMsg{Seq: 41, Parts: [][]Pair{compressiblePairs(200)}}
	var st wireStats
	var buf writeBuffer
	enc, dec := codecPeers(&buf, &st, true)
	wn, err := enc.writeResult(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out resultMsg
	rn, err := dec.readResult(&out)
	if err != nil {
		t.Fatal(err)
	}
	if wn != rn {
		t.Fatalf("wire size asymmetry: wrote %d, read %d", wn, rn)
	}
	if out.Seq != in.Seq || len(out.Parts) != 1 || !semanticPairEq(out.Parts[0], in.Parts[0]) {
		t.Fatalf("decode mismatch: %+v", out)
	}
	if saved := st.compressSaved.Load(); saved <= 0 {
		t.Fatalf("compressSaved = %d, want > 0 for repetitive payload", saved)
	}
	if st.compressNanos.Load() <= 0 {
		t.Fatal("compressNanos not accounted")
	}

	// Same payload with compression off must cost strictly more wire
	// bytes.
	var rawBuf writeBuffer
	rawEnc, _ := codecPeers(&rawBuf, &wireStats{}, false)
	rawN, err := rawEnc.writeResult(&in)
	if err != nil {
		t.Fatal(err)
	}
	if wn >= rawN {
		t.Fatalf("compressed frame %d bytes, raw %d — no shrink", wn, rawN)
	}
}

// TestWireCompressedTaskRoundTrip does the same through the task
// path, which also carries the compress request flag to the worker.
func TestWireCompressedTaskRoundTrip(t *testing.T) {
	in := taskMsg{
		Seq: 7, JobName: "lsh", Phase: "map", Conf: bytes.Repeat([]byte("conf"), 64),
		NumReducers: 8, Flags: taskFlagCompress, Records: compressiblePairs(150),
	}
	var st wireStats
	var buf writeBuffer
	enc, dec := codecPeers(&buf, &st, true)
	if _, err := enc.writeTask(&in); err != nil {
		t.Fatal(err)
	}
	var out taskMsg
	if _, err := dec.readTask(&out); err != nil {
		t.Fatal(err)
	}
	if out.Flags != taskFlagCompress || out.Seq != in.Seq || out.JobName != in.JobName ||
		out.Phase != in.Phase || !bytes.Equal(out.Conf, in.Conf) ||
		out.NumReducers != in.NumReducers || !semanticPairEq(out.Records, in.Records) {
		t.Fatalf("decode mismatch: %+v", out)
	}
	if st.compressSaved.Load() <= 0 {
		t.Fatal("task frame was not compressed")
	}
}

// TestWireGoldenFrameBytes pins the frame layout against hand-assembled
// byte strings, independent of the codec's own encoder.
func TestWireGoldenFrameBytes(t *testing.T) {
	task := taskMsg{Seq: 7, JobName: "jb", Phase: "map", Conf: []byte{1, 2},
		NumReducers: 3, Flags: taskFlagCompress, Records: []Pair{{Key: "k", Value: []byte("v")}}}

	var want []byte
	body := []byte{'T'}
	body = append(body, 1)                 // Flags
	body = binary.AppendUvarint(body, 7)   // Seq
	body = append(body, 2, 'j', 'b')       // JobName
	body = append(body, 3, 'm', 'a', 'p')  // Phase
	body = append(body, 2, 1, 2)           // Conf
	body = append(body, 3)                 // NumReducers
	body = append(body, 1, 1, 'k', 1, 'v') // Records
	want = binary.AppendUvarint(want, uint64(len(body)))
	want = append(want, body...)

	var buf writeBuffer
	enc := &frameCodec{w: &buf, st: &wireStats{}}
	if _, err := enc.writeTask(&task); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.b, want) {
		t.Fatalf("task frame bytes:\n got %x\nwant %x", buf.b, want)
	}

	res := resultMsg{Seq: 9, ShardTok: 5, ShardStart: 300, ShardEnd: 301,
		Parts: [][]Pair{{{Key: "a", Value: []byte("b")}}}}
	var wantRes []byte
	rbody := []byte{'R'}
	rbody = append(rbody, 5)               // ShardTok
	rbody = append(rbody, 0xac, 0x02)      // ShardStart
	rbody = append(rbody, 0xad, 0x02)      // ShardEnd
	rbody = binary.AppendUvarint(rbody, 9) // Seq
	rbody = append(rbody, 0)               // Err
	rbody = append(rbody, 1)               // len(Parts)
	rbody = append(rbody, 1, 1, 'a', 1, 'b')
	wantRes = binary.AppendUvarint(wantRes, uint64(len(rbody)))
	wantRes = append(wantRes, rbody...)

	var rbuf writeBuffer
	if _, err := (&frameCodec{w: &rbuf, st: &wireStats{}}).writeResult(&res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rbuf.b, wantRes) {
		t.Fatalf("result frame bytes:\n got %x\nwant %x", rbuf.b, wantRes)
	}
}

// TestWireTaskFlagsAndResultShardMeter round-trips the fields that lead the
// two frames: the task's flags and the result's shard-read attribution.
func TestWireTaskFlagsAndResultShardMeter(t *testing.T) {
	var st wireStats
	var buf writeBuffer
	enc, dec := codecPeers(&buf, &st, false)

	task := taskMsg{Seq: 3, JobName: "j", Phase: "reduce", Flags: taskFlagCompress,
		Records: []Pair{{Key: "k", Value: []byte("v")}}}
	if _, err := enc.writeTask(&task); err != nil {
		t.Fatal(err)
	}
	var outTask taskMsg
	if _, err := dec.readTask(&outTask); err != nil {
		t.Fatal(err)
	}
	if outTask.Flags != taskFlagCompress || outTask.Seq != 3 || outTask.Phase != "reduce" {
		t.Fatalf("task flags lost: %+v", outTask)
	}

	res := resultMsg{Seq: 5, ShardTok: 0xfeedface, ShardStart: 1 << 30, ShardEnd: 1<<30 + 4096}
	if _, err := enc.writeResult(&res); err != nil {
		t.Fatal(err)
	}
	var outRes resultMsg
	if _, err := dec.readResult(&outRes); err != nil {
		t.Fatal(err)
	}
	if outRes.ShardTok != res.ShardTok || outRes.ShardStart != res.ShardStart ||
		outRes.ShardEnd != res.ShardEnd || outRes.Seq != 5 {
		t.Fatalf("shard IO fields lost: %+v", outRes)
	}
}

// rawFrame frames body with its uvarint length prefix, as a peer would
// put it on the wire.
func rawFrame(body []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(body)))
	return append(out, body...)
}

// deflateBytes is a test helper for hand-building 'C' wrapper payloads.
func deflateBytes(t *testing.T, p []byte) []byte {
	t.Helper()
	var zbuf bytes.Buffer
	zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zbuf.Bytes()
}

// TestWireMalformedCompressedFrames feeds every corruption mode of the
// 'C' wrapper to the decoder: each must produce an error, never a panic
// and never an allocation sized by the lying header.
func TestWireMalformedCompressedFrames(t *testing.T) {
	inner := append([]byte{frameResult}, rawFrameResultBody()...)
	good := deflateBytes(t, inner)

	cases := []struct {
		name string
		body []byte
	}{
		{"raw length zero", append([]byte{frameCompressed, 0}, good...)},
		{"raw length over cap", append(binary.AppendUvarint([]byte{frameCompressed}, maxFrameBody+1), good...)},
		{"incomplete length varint", []byte{frameCompressed, 0x80}},
		{"garbage flate", append(binary.AppendUvarint([]byte{frameCompressed}, uint64(len(inner))), 0xde, 0xad, 0xbe, 0xef)},
		{"truncated flate", append(binary.AppendUvarint([]byte{frameCompressed}, uint64(len(inner))), good[:len(good)/2]...)},
		{"declared longer than stream", append(binary.AppendUvarint([]byte{frameCompressed}, uint64(len(inner))+5), good...)},
		{"declared shorter than stream", append(binary.AppendUvarint([]byte{frameCompressed}, uint64(len(inner))-1), good...)},
		{"nested wrapper", append(binary.AppendUvarint([]byte{frameCompressed}, uint64(1+len(good))),
			deflateBytes(t, append([]byte{frameCompressed}, good...))...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dec := &frameCodec{br: bufio.NewReader(bytes.NewReader(rawFrame(c.body))), st: &wireStats{}}
			var r resultMsg
			if _, err := dec.readResult(&r); err == nil {
				t.Fatal("malformed compressed frame decoded without error")
			}
		})
	}

	// Control: the well-formed wrapper must decode.
	ok := append(binary.AppendUvarint([]byte{frameCompressed}, uint64(len(inner))), good...)
	dec := &frameCodec{br: bufio.NewReader(bytes.NewReader(rawFrame(ok))), st: &wireStats{}}
	var r resultMsg
	if _, err := dec.readResult(&r); err != nil {
		t.Fatalf("control wrapper failed: %v", err)
	}
	if r.Seq != 9 {
		t.Fatalf("control decode Seq = %d", r.Seq)
	}
}

// rawFrameResultBody is the hand-assembled golden result body (sans
// kind byte) shared by the corruption tests.
func rawFrameResultBody() []byte {
	b := []byte{0, 0, 0}           // ShardTok, ShardStart, ShardEnd
	b = binary.AppendUvarint(b, 9) // Seq
	b = append(b, 0)               // Err
	b = append(b, 1)               // len(Parts)
	return append(b, 1, 1, 'a', 1, 'b')
}

// TestWireIncompressibleShipsRaw checks the shrink gate: a frame of
// random bytes above the threshold must go out raw and byte-identical
// to a compression-off stream, with zero claimed savings.
func TestWireIncompressibleShipsRaw(t *testing.T) {
	noise := make([]byte, 8192)
	rand.New(rand.NewSource(33)).Read(noise)
	in := taskMsg{Seq: 1, JobName: "j", Phase: "map", Conf: noise}

	var onSt, offSt wireStats
	var onBuf, offBuf writeBuffer
	onEnc, onDec := codecPeers(&onBuf, &onSt, true)
	offEnc, _ := codecPeers(&offBuf, &offSt, false)
	if _, err := onEnc.writeTask(&in); err != nil {
		t.Fatal(err)
	}
	if _, err := offEnc.writeTask(&in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onBuf.b, offBuf.b) {
		t.Fatal("incompressible frame was not shipped raw")
	}
	if onSt.compressSaved.Load() != 0 {
		t.Fatalf("compressSaved = %d for incompressible frame", onSt.compressSaved.Load())
	}
	var out taskMsg
	if _, err := onDec.readTask(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Conf, noise) {
		t.Fatal("raw-shipped frame decode mismatch")
	}
}

// TestReadExactlyBoundedByStream checks the hostile-length defense: a
// huge declared size backed by a short stream errors out having
// allocated no more than twice the bytes that arrived plus one chunk.
func TestReadExactlyBoundedByStream(t *testing.T) {
	if _, err := readExactly(strings.NewReader("short"), 1<<29); err == nil {
		t.Fatal("short stream satisfied a huge declared length")
	}
	stream := bytes.Repeat([]byte{'x'}, 100<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readExactly(bytes.NewReader(stream), 1<<29)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 100 KiB stream satisfied a 512 MiB declared length")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a lying 512 MiB prefix over 100 KiB made the receiver allocate %d bytes", grew)
	}

	payload := strings.Repeat("x", 3*readChunk+17)
	r := strings.NewReader(payload + "tail")
	got, err := readExactly(r, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatal("multi-chunk read mismatch")
	}
	if len(got) != cap(got) {
		t.Fatalf("body buffer over-allocated: len %d cap %d", len(got), cap(got))
	}
	if rest, _ := io.ReadAll(r); string(rest) != "tail" {
		t.Fatalf("readExactly consumed past the body: %q left unread", rest)
	}
	small, err := readExactly(strings.NewReader("abc"), 3)
	if err != nil || string(small) != "abc" {
		t.Fatalf("small read = %q, %v", small, err)
	}
}

// TestWireEncodeSizeExact pins the sizes taskSize and resultSize
// compute up front to the bytes writeTask and writeResult then append:
// an undercount would silently bring back the regrowth the size exists
// to avoid.
func TestWireEncodeSizeExact(t *testing.T) {
	pairs := append(compressiblePairs(300), Pair{}, Pair{Key: "k"}, Pair{Value: []byte{1}})
	tasks := []taskMsg{
		{Seq: 3, JobName: "job", Phase: "map", NumReducers: 4, Records: pairs},
		{Seq: 200, JobName: "job", Phase: "reduce", Conf: []byte("conf"), Flags: taskFlagCompress, Records: pairs[:1]},
		{},
	}
	results := []resultMsg{
		{Seq: 1, Parts: [][]Pair{pairs, nil, pairs[:2]}},
		{Seq: 300, Err: "boom", ShardTok: 9, ShardStart: 1 << 20, ShardEnd: 1 << 40},
		{},
	}
	frameSize := func(size int) int { return uvarintLen(uint64(1+size)) + 1 + size }
	var buf writeBuffer
	enc := &frameCodec{w: &buf, st: &wireStats{}}
	for i := range tasks {
		size := taskSize(&tasks[i])
		if n, err := enc.writeTask(&tasks[i]); err != nil || n != frameSize(size) {
			t.Fatalf("task %d: wrote %d bytes (%v), sized %d", i, n, err, frameSize(size))
		}
	}
	for i := range results {
		size := resultSize(&results[i])
		if n, err := enc.writeResult(&results[i]); err != nil || n != frameSize(size) {
			t.Fatalf("result %d: wrote %d bytes (%v), sized %d", i, n, err, frameSize(size))
		}
	}
}

// TestForeignShardBytes checks the master-side attribution fold:
// per-token span aggregation across phases, with the driver's own
// process and zero tokens excluded.
func TestForeignShardBytes(t *testing.T) {
	mapPhase := []resultMsg{
		{ShardTok: processToken, ShardStart: 0, ShardEnd: 1 << 20}, // own process: skipped
		{ShardTok: 0xaaaa, ShardStart: 100, ShardEnd: 150},
		{ShardTok: 0, ShardStart: 5, ShardEnd: 999}, // no meter: skipped
	}
	redPhase := []resultMsg{
		{ShardTok: 0xaaaa, ShardStart: 120, ShardEnd: 300}, // same worker, span grows to [100,300]
		{ShardTok: 0xbbbb, ShardStart: 50, ShardEnd: 60},
	}
	got := foreignShardBytes(mapPhase, redPhase)
	if want := int64(200 + 10); got != want {
		t.Fatalf("foreignShardBytes = %d, want %d", got, want)
	}
	if foreignShardBytes(nil, nil) != 0 {
		t.Fatal("empty phases attributed bytes")
	}
}

// BenchmarkWireCompressRoundTrip times the codec's deflate+inflate
// round trip on a shuffle-shaped, compressible result frame.
func BenchmarkWireCompressRoundTrip(b *testing.B) {
	pairs := compressiblePairs(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := WireRoundTripOpts(pairs, true); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzWireFrame drives the full frame decoder (including the 'C'
// inflate path) over arbitrary streams: errors are fine, panics and
// header-sized allocations are not.
func FuzzWireFrame(f *testing.F) {
	var seedBuf writeBuffer
	enc, _ := codecPeers(&seedBuf, &wireStats{}, true)
	_, _ = enc.writeTask(&taskMsg{Seq: 1, JobName: "j", Phase: "map",
		Records: compressiblePairs(150)})
	_, _ = enc.writeResult(&resultMsg{Seq: 2, ShardTok: 7, ShardEnd: 12,
		Parts: [][]Pair{{{Key: "k", Value: []byte("v")}}}})
	f.Add(seedBuf.b)
	f.Add([]byte{0x80})
	f.Add(rawFrame([]byte{frameCompressed, 0x05, 0xde, 0xad}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tm taskMsg
		_, _ = (&frameCodec{br: bufio.NewReader(bytes.NewReader(data)), st: &wireStats{}}).readTask(&tm)
		var rm resultMsg
		_, _ = (&frameCodec{br: bufio.NewReader(bytes.NewReader(data)), st: &wireStats{}}).readResult(&rm)
	})
}
