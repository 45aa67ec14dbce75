package mapreduce

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/offheap"
)

// TestReadMappedBoundedByStream holds a worker's mapped frame reads to
// readExactly's hostile-length bound: a huge declared size backed by a
// short stream fails having mapped no more than twice the bytes that
// arrived plus one chunk at once, and unmaps every buffer it grew
// through; a whole body stays mapped, exactly its own bytes, until the
// codec frees it.
func TestReadMappedBoundedByStream(t *testing.T) {
	c := &frameCodec{mapBodies: true}
	base := offheap.InUse()
	offheap.ResetPeak()
	stream := bytes.Repeat([]byte{'x'}, 100<<10)
	if _, err := c.read(bytes.NewReader(stream), 1<<29); err == nil {
		t.Fatal("a 100 KiB stream satisfied a 512 MiB declared length")
	}
	if peak := offheap.ResetPeak() - base; peak > int64(2*len(stream)+readChunk) {
		t.Fatalf("a lying 512 MiB prefix over 100 KiB mapped %d bytes at once", peak)
	}
	if got := offheap.InUse(); got != base {
		t.Fatalf("%d bytes left mapped after a failed read", got-base)
	}

	payload := strings.Repeat("y", 3*readChunk+17)
	got, err := c.read(strings.NewReader(payload), len(payload))
	if err != nil || string(got) != payload {
		t.Fatalf("multi-chunk read mismatch (%v)", err)
	}
	if want := base + int64(len(payload)); offheap.Mapped && offheap.InUse() != want {
		t.Fatalf("%d bytes mapped for a %d-byte body", offheap.InUse()-base, len(payload))
	}
	c.free(got)
	if got := offheap.InUse(); got != base {
		t.Fatalf("%d bytes left mapped after the body was freed", got-base)
	}
}

// shortReader hands out its bytes a few at a time: 1, 2, … up to 4 099,
// then 1 again.
type shortReader struct {
	b    []byte
	next int
}

func (r *shortReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	r.next = r.next%4099 + 1
	n := copy(p[:min(len(p), r.next)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestReadMappedOffheapShortReads: a mapped frame body that arrives in
// many short reads, and so grows through every step of readExactly's
// schedule, comes out byte-identical to the stream, at each size around
// the first chunk and the page, and is exactly its own bytes mapped
// until freed.
func TestReadMappedOffheapShortReads(t *testing.T) {
	c := &frameCodec{mapBodies: true}
	base := offheap.InUse()
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 4095, 4097, readChunk, readChunk + 1, 5*readChunk + 333, 1<<21 + 7} {
		payload := make([]byte, n)
		rng.Read(payload)
		got, err := c.read(&shortReader{b: payload}, n)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte body in short reads: differs from the stream (%v)", n, err)
		}
		if want := base + int64(n); offheap.Mapped && offheap.InUse() != want {
			t.Fatalf("%d bytes mapped for a %d-byte body", offheap.InUse()-base, n)
		}
		c.free(got)
		if got := offheap.InUse(); got != base {
			t.Fatalf("%d bytes left mapped after a %d-byte body was freed", got-base, n)
		}
	}
}
