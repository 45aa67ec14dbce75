package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/offheap"
)

// TestMain fails the suite if a worker left a task frame mapped: every
// frame body a worker reads is freed once its task is answered or
// abandoned, so after the last test nothing may be in use.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := offheap.InUse(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d bytes of task frames still mapped after the suite\n", n)
		code = 1
	}
	os.Exit(code)
}

// checkNothingMapped fails t if any frame body is still mapped.
func checkNothingMapped(t *testing.T) {
	t.Helper()
	if n := offheap.InUse(); n != 0 {
		t.Errorf("%d bytes still mapped after every worker returned", n)
	}
}

// bulkyInput is count records whose values are large enough that a
// worker reads each task frame in several growing buffers.
func bulkyInput(count, size int) []Pair {
	input := make([]Pair, count)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: bytes.Repeat([]byte{byte('a' + i%26)}, size)}
	}
	return input
}

// TestOffheapFramesFreed holds a worker to freeing every task frame it
// reads on each way a task can end: answered, lost with its worker and
// requeued, refused as malformed, cut off, or abandoned by a cancelled
// job.
func TestOffheapFramesFreed(t *testing.T) {
	lenMap := func(key string, value []byte, emit Emit) error {
		emit(key, []byte(strconv.Itoa(len(value))))
		return nil
	}
	firstOnly := func(key string, values [][]byte, emit Emit) error {
		emit(key, values[0])
		return nil
	}

	t.Run("requeue", func(t *testing.T) {
		started, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		job := &Job{Name: "offheap-requeue", NumReducers: 3, SplitSize: 1, Reduce: firstOnly,
			Map: func(key string, value []byte, emit Emit) error {
				once.Do(func() { close(started); <-release })
				return lenMap(key, value, emit)
			}}
		Register(job)
		input := bulkyInput(24, 200<<10)
		m, err := NewMaster("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = m.Close() }()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // lost while it holds tasks
			defer wg.Done()
			if err := RunWorkerContext(ctx, m.Addr()); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled worker: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := RunWorker(m.Addr()); err != nil {
				t.Errorf("surviving worker: %v", err)
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for m.ConnectedWorkers() < 2 {
			if time.Now().After(deadline) {
				t.Fatal("workers did not join")
			}
			time.Sleep(time.Millisecond)
		}
		go func() {
			<-started
			cancel()
			close(release)
		}()
		out, _, err := m.Run(job, input)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := (&Local{}).Run(job, input)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(out, want) {
			t.Fatalf("output after a requeue\n got %v\nwant %v", out, want)
		}
		_ = m.Close()
		wg.Wait()
		checkNothingMapped(t)
	})

	t.Run("malformed", func(t *testing.T) {
		big := func(kind byte, n int) []byte { // a whole frame of n body bytes, all garbage after the kind
			body := append([]byte{kind}, bytes.Repeat([]byte{0xff}, n-1)...)
			return append(binary.AppendUvarint(nil, uint64(n)), body...)
		}
		for _, tc := range []struct {
			name      string
			send      []byte
			malformed bool
		}{
			{"garbage-task", big(frameTask, 300<<10), true},
			{"garbage-wrapper", big(frameCompressed, 100<<10), true},
			{"cut-short", big(frameTask, 300<<10)[:150<<10], false},
		} {
			t.Run(tc.name, func(t *testing.T) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = ln.Close() }()
				masterErr := make(chan error, 1)
				go func() {
					conn, err := ln.Accept()
					if err != nil {
						masterErr <- err
						return
					}
					defer func() { _ = conn.Close() }()
					if err := acceptHello(conn, time.Second, &wireStats{}); err != nil {
						masterErr <- err
						return
					}
					_, err = conn.Write(tc.send)
					masterErr <- err
				}()
				err = RunWorker(ln.Addr().String())
				if merr := <-masterErr; merr != nil {
					t.Fatalf("fake master: %v", merr)
				}
				if errors.Is(err, errMalformedFrame) != tc.malformed {
					t.Fatalf("worker returned %v, malformed frame expected: %v", err, tc.malformed)
				}
				checkNothingMapped(t)
			})
		}
	})

	t.Run("cancelled-job", func(t *testing.T) {
		started, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		job := &Job{Name: "offheap-cancel", NumReducers: 2, SplitSize: 1, Reduce: firstOnly,
			Map: func(key string, value []byte, emit Emit) error {
				once.Do(func() { close(started) })
				<-release
				return lenMap(key, value, emit)
			}}
		Register(job)
		m, err := NewMaster("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = m.Close() }()
		workerErr := make(chan error, 1)
		go func() { workerErr <- RunWorker(m.Addr()) }()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		runErr := make(chan error, 1)
		go func() {
			_, _, err := m.RunContext(ctx, job, bulkyInput(16, 200<<10))
			runErr <- err
		}()
		<-started
		cancel()
		if err := <-runErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext err = %v, want context.Canceled", err)
		}
		close(release)
		select {
		case <-workerErr: // nil or a send-result error: either way it returned
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not exit")
		}
		checkNothingMapped(t)
	})
}
