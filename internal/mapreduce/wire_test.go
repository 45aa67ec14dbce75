package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// randomWireString includes empty, ASCII, and multi-byte contents.
func randomWireString(rng *rand.Rand) string {
	n := rng.Intn(20)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(rune(rng.Intn(0x2FF) + 1))
	}
	return sb.String()
}

func randomWireBytes(rng *rand.Rand) []byte {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, rng.Intn(64))
	rng.Read(b)
	return b
}

func randomWirePairs(rng *rand.Rand, maxLen int) []Pair {
	n := rng.Intn(maxLen)
	if n == 0 {
		return nil
	}
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: randomWireString(rng), Value: randomWireBytes(rng)}
	}
	return out
}

// semanticPairEq treats nil and empty values as equal — gob and the
// frame parser both collapse empty slices to nil, but the random
// generators produce both shapes.
func semanticPairEq(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// frameRoundTripTask encodes and decodes one taskMsg through the frame
// codec over an in-memory stream.
func frameRoundTripTask(t *testing.T, in *taskMsg) taskMsg {
	t.Helper()
	var st wireStats
	var buf writeBuffer
	enc := &frameCodec{w: &buf, st: &st}
	wn, err := enc.writeTask(in)
	if err != nil {
		t.Fatalf("writeTask: %v", err)
	}
	dec := &frameCodec{br: bufio.NewReader(&buf), st: &st}
	var out taskMsg
	rn, err := dec.readTask(&out)
	if err != nil {
		t.Fatalf("readTask: %v", err)
	}
	if wn != rn {
		t.Fatalf("wire size asymmetry: wrote %d, read %d", wn, rn)
	}
	if st.bytesOut.Load() != int64(wn) || st.bytesIn.Load() != int64(rn) {
		t.Fatalf("stats (%d out, %d in) disagree with frame size %d",
			st.bytesOut.Load(), st.bytesIn.Load(), wn)
	}
	return out
}

// TestWireTaskRoundTripAgainstGob is the codec property test: for
// random taskMsg values, the frame round trip must preserve exactly
// what a gob round trip preserves. gob is the independent reference
// here — an encoder the frame codec did not write.
func TestWireTaskRoundTripAgainstGob(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		in := taskMsg{
			Seq:         rng.Intn(1 << 20),
			JobName:     randomWireString(rng),
			Phase:       randomWireString(rng),
			Conf:        randomWireBytes(rng),
			NumReducers: rng.Intn(64),
			Records:     randomWirePairs(rng, 12),
			Flags:       uint64(rng.Intn(4)),
		}

		var gobBuf bytes.Buffer
		var gobOut taskMsg
		if err := gob.NewEncoder(&gobBuf).Encode(&in); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&gobBuf).Decode(&gobOut); err != nil {
			t.Fatal(err)
		}

		frameOut := frameRoundTripTask(t, &in)
		if frameOut.Seq != gobOut.Seq || frameOut.JobName != gobOut.JobName ||
			frameOut.Phase != gobOut.Phase || !bytes.Equal(frameOut.Conf, gobOut.Conf) ||
			frameOut.NumReducers != gobOut.NumReducers || frameOut.Flags != gobOut.Flags ||
			!semanticPairEq(frameOut.Records, gobOut.Records) {
			t.Fatalf("trial %d: frame decode %+v differs from gob decode %+v (in %+v)",
				trial, frameOut, gobOut, in)
		}
	}
}

// TestWireResultRoundTripAgainstGob does the same for resultMsg,
// including multi-partition payloads and error strings.
func TestWireResultRoundTripAgainstGob(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		nParts := rng.Intn(5)
		var parts [][]Pair
		if nParts > 0 {
			parts = make([][]Pair, nParts)
			for i := range parts {
				parts[i] = randomWirePairs(rng, 10)
			}
		}
		in := resultMsg{Seq: rng.Intn(1 << 20), Err: randomWireString(rng), Parts: parts}
		if trial%2 == 1 {
			in.ShardTok, in.ShardStart = rng.Uint64(), rng.Int63n(1<<40)
			in.ShardEnd = in.ShardStart + rng.Int63n(1<<30)
		}

		var gobBuf bytes.Buffer
		var gobOut resultMsg
		if err := gob.NewEncoder(&gobBuf).Encode(&in); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&gobBuf).Decode(&gobOut); err != nil {
			t.Fatal(err)
		}

		var st wireStats
		var buf writeBuffer
		if _, err := (&frameCodec{w: &buf, st: &st}).writeResult(&in); err != nil {
			t.Fatal(err)
		}
		var frameOut resultMsg
		if _, err := (&frameCodec{br: bufio.NewReader(&buf), st: &st}).readResult(&frameOut); err != nil {
			t.Fatal(err)
		}
		if frameOut.Seq != gobOut.Seq || frameOut.Err != gobOut.Err ||
			frameOut.ShardTok != gobOut.ShardTok || frameOut.ShardStart != gobOut.ShardStart ||
			frameOut.ShardEnd != gobOut.ShardEnd || len(frameOut.Parts) != len(gobOut.Parts) {
			t.Fatalf("trial %d: frame %+v vs gob %+v", trial, frameOut, gobOut)
		}
		for p := range frameOut.Parts {
			if !semanticPairEq(frameOut.Parts[p], gobOut.Parts[p]) {
				t.Fatalf("trial %d part %d: frame %v vs gob %v",
					trial, p, frameOut.Parts[p], gobOut.Parts[p])
			}
		}
	}
}

// TestWireMalformedFramesDoNotPanic feeds random garbage and truncated
// prefixes of valid bodies to the parsers: they must return errors (or
// succeed on the rare valid prefix), never panic or over-read.
func TestWireMalformedFramesDoNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		body := make([]byte, rng.Intn(80))
		rng.Read(body)
		var tm taskMsg
		_ = parseTask(body, &tm)
		var res resultMsg
		_ = parseResult(body, &res)
	}

	// Truncations of a known-good body must all fail cleanly.
	valid := taskMsg{Seq: 9, JobName: "j", Phase: "map", Conf: []byte("c"),
		NumReducers: 3, Records: []Pair{{Key: "k", Value: []byte("v")}}}
	var buf writeBuffer
	if _, err := (&frameCodec{w: &buf, st: &wireStats{}}).writeTask(&valid); err != nil {
		t.Fatal(err)
	}
	full := buf.b[uvarintLen(uint64(len(buf.b)-1)):] // strip the length prefix
	body := full[1:]                                 // strip the kind byte
	for cut := 0; cut < len(body); cut++ {
		var tm taskMsg
		if err := parseTask(body[:cut], &tm); err == nil {
			t.Fatalf("truncation at %d/%d parsed without error", cut, len(body))
		}
	}
	var tm taskMsg
	if err := parseTask(body, &tm); err != nil {
		t.Fatalf("full body failed: %v", err)
	}
	if err := parseTask(append(append([]byte(nil), body...), 0), &tm); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestWireHelloRefusesOtherVersions pins the hello: two peers of this
// build accept each other, and a peer that presents any other version —
// older, newer, zero — is refused on both sides with an error naming
// both versions.
func TestWireHelloRefusesOtherVersions(t *testing.T) {
	// hello runs one real handshake half against a scripted peer.
	hello := func(fake func(conn net.Conn), real func(conn net.Conn) error) error {
		a, b := net.Pipe()
		defer func() { _ = a.Close(); _ = b.Close() }()
		go fake(a)
		return real(b)
	}
	master := func(conn net.Conn) error { return acceptHello(conn, time.Second, &wireStats{}) }
	worker := func(conn net.Conn) error { return sendHello(conn, time.Second, &wireStats{}) }

	if err := hello(func(c net.Conn) { _ = worker(c) }, master); err != nil {
		t.Fatalf("master refused a worker of its own version: %v", err)
	}
	if err := hello(func(c net.Conn) { _ = master(c) }, worker); err != nil {
		t.Fatalf("worker refused a master of its own version: %v", err)
	}
	for _, other := range []byte{0, 1, 2, 3, wireVersion + 1, 0xff} {
		want := []string{fmt.Sprintf("version %d", other), fmt.Sprintf("speaks %d", wireVersion)}
		err := hello(func(c net.Conn) { // a worker of another version
			_, _ = c.Write(append(wireMagic[:], other))
			_, _ = io.ReadFull(c, make([]byte, 1))
		}, master)
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("master met worker version %d: err = %v, want it to mention %q", other, err, w)
			}
		}
		err = hello(func(c net.Conn) { // a master of another version
			_, _ = io.ReadFull(c, make([]byte, helloLen))
			_, _ = c.Write([]byte{other})
		}, worker)
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("worker met master version %d: err = %v, want it to mention %q", other, err, w)
			}
		}
	}
}

// TestWireHelloRejectsBadMagic ensures a non-DASC peer is refused
// during the handshake.
func TestWireHelloRejectsBadMagic(t *testing.T) {
	wc, mc := net.Pipe()
	defer func() { _ = wc.Close(); _ = mc.Close() }()
	errCh := make(chan error, 1)
	go func() {
		errCh <- acceptHello(mc, time.Second, &wireStats{})
	}()
	if _, err := wc.Write([]byte("HTTP/")); err != nil {
		t.Fatal(err)
	}
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "bad hello magic") {
		t.Fatalf("err = %v, want bad-magic rejection", err)
	}
}

// BenchmarkWireRoundTrip times the frame codec's encode+decode of a
// shuffle-shaped result frame (the CI bench-smoke entry).
func BenchmarkWireRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	pairs := make([]Pair, 1024)
	for i := range pairs {
		pairs[i] = Pair{Key: randomWireString(rng), Value: randomWireBytes(rng)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := WireRoundTripOpts(pairs, false); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireRoundTripHelper covers the exported benchmark hook.
func TestWireRoundTripHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pairs := randomWirePairs(rng, 200)
	n, raw, err := WireRoundTripOpts(pairs, false)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || raw != n {
		t.Fatalf("wire size = %d, raw size = %d", n, raw)
	}
	if n, raw, err = WireRoundTripOpts(compressiblePairs(200), true); err != nil || n >= raw {
		t.Fatalf("compressed round trip: %d wire bytes of %d raw (%v)", n, raw, err)
	}
	if _, _, err := WireRoundTripOpts(nil, false); err != nil {
		t.Fatalf("empty round trip: %v", err)
	}
}
