package core

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/mapreduce"
)

// teeProxy stands between a TCP master and its workers: every worker
// dials the proxy, the proxy dials the master, and the bytes the master
// sends down each connection are kept, per connection, while they are
// passed on unchanged.
type teeProxy struct {
	ln     net.Listener
	master string
	mu     sync.Mutex
	down   []*bytes.Buffer // master -> worker bytes, one per connection
	wg     sync.WaitGroup
}

func newTeeProxy(t *testing.T, master string) *teeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &teeProxy{ln: ln, master: master}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			w, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			m, err := net.Dial("tcp", master)
			if err != nil {
				_ = w.Close()
				continue
			}
			buf := &bytes.Buffer{}
			p.mu.Lock()
			p.down = append(p.down, buf)
			p.mu.Unlock()
			p.wg.Add(2)
			go func() { // worker -> master, untouched
				defer p.wg.Done()
				_, _ = io.Copy(m, w)
				_ = m.Close()
			}()
			go func() { // master -> worker, kept
				defer p.wg.Done()
				_, _ = io.Copy(io.MultiWriter(w, buf), m)
				_ = w.Close()
			}()
		}
	}()
	return p
}

// taskFrameHashes splits each kept stream into its hello reply and
// frames, and returns, per job name, the FNV-64a of every whole frame
// (length prefix and body, as it crossed the wire), sorted: which worker
// a task went to is the scheduler's choice, the bytes of each task frame
// are not. A 'C' wrapper is inflated to read the task's job name.
func (p *teeProxy) taskFrameHashes(t *testing.T) map[string][]uint64 {
	t.Helper()
	sums := map[string][]uint64{}
	for ci, buf := range p.down {
		r := bufio.NewReader(bytes.NewReader(buf.Bytes()))
		if _, err := r.ReadByte(); err != nil { // the master's hello reply
			t.Fatalf("connection %d: no hello reply: %v", ci, err)
		}
		for {
			n, err := binary.ReadUvarint(r)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("connection %d: frame length: %v", ci, err)
			}
			body := make([]byte, n)
			if _, err := io.ReadFull(r, body); err != nil {
				t.Fatalf("connection %d: frame of %d bytes cut short: %v", ci, n, err)
			}
			h := fnv.New64a()
			_, _ = h.Write(binary.AppendUvarint(nil, n))
			_, _ = h.Write(body)
			job := taskJobName(t, body)
			sums[job] = append(sums[job], h.Sum64())
		}
	}
	for _, s := range sums {
		slices.Sort(s)
	}
	return sums
}

// taskJobName reads the job name of a task frame body: kind 'T', then
// uvarint flags, uvarint seq and the length-prefixed name; a 'C' body is
// the raw length and the deflated inner body.
func taskJobName(t *testing.T, body []byte) string {
	t.Helper()
	if len(body) > 0 && body[0] == 'C' {
		_, w := binary.Uvarint(body[1:])
		inner, err := io.ReadAll(flate.NewReader(bytes.NewReader(body[1+w:])))
		if err != nil {
			t.Fatalf("compressed frame: %v", err)
		}
		body = inner
	}
	if len(body) == 0 || body[0] != 'T' {
		t.Fatalf("frame of kind %q where a task was expected", body[:min(1, len(body))])
	}
	rest := body[1:]
	for range 2 { // flags, seq
		_, w := binary.Uvarint(rest)
		rest = rest[w:]
	}
	l, w := binary.Uvarint(rest)
	if w <= 0 || uint64(len(rest)-w) < l {
		t.Fatal("task frame cut short before its job name")
	}
	return string(rest[w : w+int(l)])
}

// TestShippedTaskFramesPinned hashes every task frame a TCP master
// writes for a small record-carried run over two workers, with frame
// compression off and on, and pins each job's frames apart: how many
// there are and the FNV-64a of their sorted hashes. However the master
// comes to hold the rows it ships, the bytes on the wire stay these.
// Stage 1 hashes in the driver, so only stage 2 sends task frames; a
// frame of any other job fails the test.
func TestShippedTaskFramesPinned(t *testing.T) {
	type pin struct {
		frames int
		want   uint64
	}
	l := mixture(t, 2500, 8, 4, 0.03, 71)
	for _, tc := range []struct {
		name     string
		compress bool
		jobs     map[string]pin
	}{
		{"plain", false, map[string]pin{"dasc-cluster": {4, 0x82019ab7dbb2f022}}},
		{"compressed", true, map[string]pin{"dasc-cluster": {4, 0x6faff08a05e34764}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := mapreduce.NewMaster("127.0.0.1:0", 2)
			if err != nil {
				t.Fatal(err)
			}
			proxy := newTeeProxy(t, m.Addr())
			var workers sync.WaitGroup
			for i := 0; i < 2; i++ {
				workers.Add(1)
				go func() {
					defer workers.Done()
					if err := mapreduce.RunWorker(proxy.ln.Addr().String()); err != nil {
						t.Errorf("worker: %v", err)
					}
				}()
			}
			waitWorkers(t, m, 2)
			cfg := Config{K: 4, Seed: 72, EmbedDim: 16, EmbedCutoff: 256, Compression: tc.compress}
			_, runErr := Run(bg, Source{Points: l.Points}, onExec(m, cfg))
			_ = m.Close()
			workers.Wait()
			_ = proxy.ln.Close()
			proxy.wg.Wait()
			if runErr != nil {
				t.Fatal(runErr)
			}
			byJob := proxy.taskFrameHashes(t)
			for job := range byJob {
				if _, ok := tc.jobs[job]; !ok {
					t.Errorf("%d task frames of unpinned job %q", len(byJob[job]), job)
				}
			}
			for job, want := range tc.jobs {
				sums := byJob[job]
				h := fnv.New64a()
				for _, s := range sums {
					_, _ = h.Write(binary.LittleEndian.AppendUint64(nil, s))
				}
				t.Logf("%s: %d task frames, combined FNV-64a %#016x", job, len(sums), h.Sum64())
				if len(sums) != want.frames || h.Sum64() != want.want {
					t.Errorf("%s: %d task frames hashing to %#016x, want %d hashing to %#016x", job, len(sums), h.Sum64(), want.frames, want.want)
				}
			}
		})
	}
}
