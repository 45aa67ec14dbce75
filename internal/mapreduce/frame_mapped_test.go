package mapreduce

import (
	"bytes"
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
