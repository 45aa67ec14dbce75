package mapreduce

import (
	"net"
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
