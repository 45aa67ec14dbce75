package core

import (
	"bufio"
	"bytes"
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
// frames, and returns the FNV-64a of every whole frame (length prefix
// and body), sorted: which worker a task went to is the scheduler's
// choice, the bytes of each task frame are not.
func (p *teeProxy) taskFrameHashes(t *testing.T) []uint64 {
	t.Helper()
	var sums []uint64
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
			sums = append(sums, h.Sum64())
		}
	}
	slices.Sort(sums)
	return sums
}

// TestShippedTaskFramesPinned hashes every task frame a TCP master
// writes for a small record-carried run, over both stages and two
// workers, with frame compression off and on: however the master comes
// to hold the rows it ships, the bytes on the wire stay these.
func TestShippedTaskFramesPinned(t *testing.T) {
	l := mixture(t, 2500, 8, 4, 0.03, 71)
	for _, tc := range []struct {
		name     string
		compress bool
		frames   int
		want     uint64
	}{
		{"plain", false, 7, 0xd39d6b460d5561e5},
		{"compressed", true, 7, 0x09daeeea48813154},
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
			sums := proxy.taskFrameHashes(t)
			h := fnv.New64a()
			for _, s := range sums {
				_, _ = h.Write(binary.LittleEndian.AppendUint64(nil, s))
			}
			t.Logf("%d task frames, combined FNV-64a %#016x", len(sums), h.Sum64())
			if len(sums) != tc.frames || h.Sum64() != tc.want {
				t.Fatalf("%d task frames hashing to %#016x, want %d hashing to %#016x", len(sums), h.Sum64(), tc.frames, tc.want)
			}
		})
	}
}
