package mapreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// startCluster spins up a master and n in-process workers over real
// TCP sockets, returning a cleanup function.
func startCluster(t *testing.T, n int) (*Master, func()) {
	t.Helper()
	m, err := NewMaster("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(m.Addr()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	// Wait for all workers to join so Close cannot race their dials.
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join")
		}
		time.Sleep(time.Millisecond)
	}
	return m, func() {
		m.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("workers did not shut down")
		}
	}
}

func TestTCPWordCountSingleWorker(t *testing.T) {
	job := wordCountJob("tcp-wc-1", 2, false)
	Register(job)
	m, stop := startCluster(t, 1)
	defer stop()
	out, ctr, err := m.Run(job, wordInput())
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, out)
	if ctr.MapTasks == 0 || ctr.ReduceTasks != 2 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestTCPWordCountManyWorkers(t *testing.T) {
	job := wordCountJob("tcp-wc-4", 3, true)
	job.SplitSize = 1 // force several map tasks across workers
	Register(job)
	m, stop := startCluster(t, 4)
	defer stop()
	out, ctr, err := m.Run(job, wordInput())
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, out)
	if ctr.MapTasks != 3 {
		t.Fatalf("MapTasks = %d, want 3", ctr.MapTasks)
	}
}

func TestTCPMatchesLocal(t *testing.T) {
	job := wordCountJob("tcp-wc-eq", 2, false)
	Register(job)
	m, stop := startCluster(t, 2)
	defer stop()
	tcpOut, _, err := m.Run(job, wordInput())
	if err != nil {
		t.Fatal(err)
	}
	localOut, _, err := (&Local{}).Run(job, wordInput())
	if err != nil {
		t.Fatal(err)
	}
	if len(tcpOut) != len(localOut) {
		t.Fatalf("lengths differ: %d vs %d", len(tcpOut), len(localOut))
	}
	for i := range tcpOut {
		if tcpOut[i].Key != localOut[i].Key || string(tcpOut[i].Value) != string(localOut[i].Value) {
			t.Fatalf("record %d differs: %v vs %v", i, tcpOut[i], localOut[i])
		}
	}
}

func TestTCPUnregisteredJob(t *testing.T) {
	m, stop := startCluster(t, 1)
	defer stop()
	job := wordCountJob("never-registered", 1, false)
	_, _, err := m.Run(job, wordInput())
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPMapErrorSurfacesOnMaster(t *testing.T) {
	job := &Job{
		Name: "tcp-failing",
		Map: func(key string, value []byte, emit Emit) error {
			return &tcpTestError{}
		},
		Reduce: func(key string, values [][]byte, emit Emit) error { return nil },
	}
	Register(job)
	m, stop := startCluster(t, 1)
	defer stop()
	_, _, err := m.Run(job, wordInput())
	if err == nil || !strings.Contains(err.Error(), "tcp test boom") {
		t.Fatalf("err = %v", err)
	}
}

type tcpTestError struct{}

func (*tcpTestError) Error() string { return "tcp test boom" }

func TestTCPSequentialJobsReuseWorkers(t *testing.T) {
	job := wordCountJob("tcp-seq", 2, false)
	Register(job)
	m, stop := startCluster(t, 2)
	defer stop()
	for i := 0; i < 3; i++ {
		out, _, err := m.Run(job, wordInput())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		checkWordCount(t, out)
	}
}

func TestTCPEmptyInput(t *testing.T) {
	job := wordCountJob("tcp-empty", 2, false)
	Register(job)
	m, stop := startCluster(t, 1)
	defer stop()
	out, _, err := m.Run(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
}

// dialHello dials the master and completes the hello handshake as a
// worker, returning the connection and its codec.
func dialHello(t *testing.T, addr string) (net.Conn, *frameCodec) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	st := &wireStats{}
	if err := sendHello(conn, time.Second, st); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return conn, newFrameCodec(conn, st)
}

// faultyWorker joins the master, reads one task, and drops the
// connection without replying — simulating a task-tracker crash.
func faultyWorker(t *testing.T, addr string) {
	t.Helper()
	conn, cdc := dialHello(t, addr)
	var task taskMsg
	_, _ = cdc.readTask(&task) // swallow one task (or the close), then die
	conn.Close()
}

func TestTCPWorkerFailureRequeues(t *testing.T) {
	job := wordCountJob("tcp-faulty", 2, false)
	job.SplitSize = 1
	Register(job)
	m, err := NewMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		faultyWorker(t, m.Addr())
	}()
	go func() {
		defer wg.Done()
		if err := RunWorker(m.Addr()); err != nil {
			t.Errorf("healthy worker: %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join")
		}
		time.Sleep(time.Millisecond)
	}

	out, _, err := m.Run(job, wordInput())
	if err != nil {
		// The healthy worker may also drain the whole queue before the
		// faulty one's task is requeued; either full success or a
		// deterministic straggler error is acceptable, but a hang or a
		// wrong result is not.
		t.Logf("run with faulty worker returned: %v", err)
	} else {
		checkWordCount(t, out)
	}
	m.Close()
	wg.Wait()
}

// TestTCPReduceWorkerFailureRequeues kills a worker on its first reduce
// task — faultyWorker only ever dies on a map task. The dying worker has
// served its map tasks, so its runs are in the master's shuffle buffer,
// and the reduce task it took is requeued as a task with no records: the
// survivor's copy is merged again from the runs, resident (SpillBytes 0)
// or spilled and deflated, and the output must equal Local's. The
// survivor's reducers wait for the death and every partition has a key,
// so the survivor's connection fills its window with reduce tasks it
// cannot finish and the dying worker is certain to be handed one.
func TestTCPReduceWorkerFailureRequeues(t *testing.T) {
	input := make([]Pair, 64)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: []byte(fmt.Sprintf("w%d w%d", i, (i+1)%len(input)))}
	}
	for _, c := range []struct {
		spill    int64
		compress bool
	}{{0, false}, {0, true}, {1, false}, {1, true}} {
		t.Run(fmt.Sprintf("spill=%d/compress=%v", c.spill, c.compress), func(t *testing.T) {
			died := make(chan struct{})
			job := wordCountJob(fmt.Sprintf("tcp-reduce-faulty-%d-%v", c.spill, c.compress), 8, false)
			job.SplitSize, job.SpillBytes, job.Compress = 1, c.spill, c.compress
			count := job.Reduce
			job.Reduce = func(key string, values [][]byte, emit Emit) error {
				select {
				case <-died:
				case <-time.After(10 * time.Second):
					return errors.New("no worker died on a reduce task")
				}
				return count(key, values, emit)
			}
			Register(job)
			m, err := NewMaster("127.0.0.1:0", 2)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // serves map tasks, dies holding its first reduce task
				defer wg.Done()
				conn, cdc := dialHello(t, m.Addr())
				defer conn.Close()
				for {
					var task taskMsg
					if _, err := cdc.readTask(&task); err != nil {
						t.Errorf("faulty worker saw no reduce task: %v", err)
						return
					}
					if task.Phase == "reduce" {
						close(died)
						return
					}
					cdc.compress = task.Flags&taskFlagCompress != 0
					res := serveTask(context.Background(), &task)
					if _, err := cdc.writeResult(&res); err != nil {
						t.Errorf("faulty worker: %v", err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				if err := RunWorker(m.Addr()); err != nil {
					t.Errorf("healthy worker: %v", err)
				}
			}()
			deadline := time.Now().Add(5 * time.Second)
			for m.ConnectedWorkers() < 2 {
				if time.Now().After(deadline) {
					t.Fatal("workers did not join")
				}
				time.Sleep(time.Millisecond)
			}

			out, ctr, err := m.Run(job, input)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := (&Local{}).Run(job, input)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(input) || !pairsEqual(out, want) {
				t.Fatalf("output after a reduce-task requeue\n got %v\nwant %v", out, want)
			}
			if (c.spill > 0) != (ctr.SpillBytes > 0) {
				t.Fatalf("SpillBytes budget %d: %d bytes spilled", c.spill, ctr.SpillBytes)
			}
			m.Close()
			wg.Wait()
		})
	}
}

func TestNewMasterValidation(t *testing.T) {
	if _, err := NewMaster("127.0.0.1:0", 0); err == nil {
		t.Fatal("expected error for zero workers")
	}
}

func TestRegisterRequiresName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty name")
		}
	}()
	Register(&Job{})
}

func TestRunWorkerBadAddress(t *testing.T) {
	if err := RunWorker("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

// TestRunWorkerMalformedFrame plays a master that completes the hello
// and then sends something that is not a task. The worker must report
// the malformed frame, not exit as if the master had shut down; a
// master that hangs up after the hello is still a clean shutdown.
func TestRunWorkerMalformedFrame(t *testing.T) {
	for _, tc := range []struct {
		name      string
		send      []byte
		malformed bool
	}{
		{"hang-up", nil, false},
		{"wrong-kind", []byte{1, frameResult}, true},
		{"body-length-out-of-range", binary.AppendUvarint(nil, maxFrameBody+1), true},
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
			if tc.malformed && !errors.Is(err, errMalformedFrame) {
				t.Fatalf("worker returned %v, want a malformed-frame error", err)
			}
			if !tc.malformed && err != nil {
				t.Fatalf("worker returned %v after a clean hang-up, want nil", err)
			}
		})
	}
}
