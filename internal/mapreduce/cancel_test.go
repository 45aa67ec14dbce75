package mapreduce

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitNoGoroutineLeak polls until the goroutine count drops back to the
// pre-test level (background GC helpers may fluctuate, so poll rather
// than compare once), dumping stacks on timeout.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// manyRecords builds count map input records.
func manyRecords(count int) []Pair {
	input := make([]Pair, count)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i)}
	}
	return input
}

// TestLocalCancelMidJob cancels the context from inside the first map
// invocation: the Local executor checks the context before every record,
// so the job must stop early and return context.Canceled.
func TestLocalCancelMidJob(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	job := &Job{
		Name: "cancel-local",
		Map: func(key string, value []byte, emit Emit) error {
			once.Do(cancel)
			emit(key, nil)
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			emit(key, nil)
			return nil
		},
	}
	_, _, err := (&Local{}).RunContext(ctx, job, manyRecords(10_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancel-local") {
		t.Errorf("error %q does not name the job", err)
	}
	waitNoGoroutineLeak(t, before)
}

// TestLocalDeadlineExceeded runs a job with an already-expired deadline.
func TestLocalDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	job := &Job{
		Name:   "deadline-local",
		Map:    func(key string, value []byte, emit Emit) error { emit(key, nil); return nil },
		Reduce: func(key string, values [][]byte, emit Emit) error { emit(key, nil); return nil },
	}
	_, _, err := (&Local{}).RunContext(ctx, job, manyRecords(16))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestTCPCancelMidJob cancels a job whose map tasks are blocked on a
// worker. RunContext must return promptly with context.Canceled, the
// master must end up closed (its gob streams are unrecoverable), and no
// goroutines may leak.
func TestTCPCancelMidJob(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	job := &Job{
		Name: "cancel-tcp",
		Map: func(key string, value []byte, emit Emit) error {
			once.Do(func() { close(started) })
			<-release
			emit(key, nil)
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			emit(key, nil)
			return nil
		},
	}
	Register(job)

	m, err := NewMaster("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	// The worker runs without a context: after the cancelled master
	// closes its socket, the result write fails and the worker returns.
	workerErr := make(chan error, 1)
	go func() { workerErr <- RunWorker(m.Addr()) }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		_, _, err := m.RunContext(ctx, job, manyRecords(64))
		runErr <- err
	}()

	<-started
	cancel()
	select {
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancel")
	}

	// The cancelled master must have torn itself down: its listener no
	// longer accepts and further Run calls refuse.
	if conn, err := net.DialTimeout("tcp", m.Addr(), time.Second); err == nil {
		_ = conn.Close()
		t.Error("master listener still accepting after cancelled job")
	}
	if _, _, err := m.Run(job, manyRecords(1)); err == nil || !strings.Contains(err.Error(), "master closed") {
		t.Errorf("Run after cancel = %v, want master closed", err)
	}

	// Unblock the worker's in-flight map so every goroutine can drain.
	close(release)
	select {
	case <-workerErr: // nil (EOF) or a send-result error; either is a clean exit
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit")
	}
	waitNoGoroutineLeak(t, before)
}

// TestTCPCancelWhileWaitingForWorkers cancels a RunContext that is still
// waiting for MinWorkers to join.
func TestTCPCancelWhileWaitingForWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	job := &Job{
		Name:   "cancel-join",
		Map:    func(key string, value []byte, emit Emit) error { emit(key, nil); return nil },
		Reduce: func(key string, values [][]byte, emit Emit) error { emit(key, nil); return nil },
	}
	Register(job)
	m, err := NewMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); cancel() }()
	_, _, err = m.RunContext(ctx, job, manyRecords(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineLeak(t, before)
}

// TestRunWorkerContextCancel cancels a worker's context. An idle worker
// is blocked reading the next task: the watchdog expires the socket and
// the worker returns the context error. A worker in the middle of a task
// must not finish the task first: the task body checks the context
// between records, so it returns within one Map call.
func TestRunWorkerContextCancel(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		before := runtime.NumGoroutine()
		m, err := NewMaster("127.0.0.1:0", 2) // 2 joiners required: no job ever runs
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = m.Close() }()
		ctx, cancel := context.WithCancel(context.Background())
		workerErr := make(chan error, 1)
		go func() { workerErr <- RunWorkerContext(ctx, m.Addr()) }()
		deadline := time.Now().Add(5 * time.Second)
		for m.ConnectedWorkers() < 1 {
			if time.Now().After(deadline) {
				t.Fatal("worker did not join")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-workerErr:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("worker err = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not return after cancel")
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		waitNoGoroutineLeak(t, before)
	})
	t.Run("mid-task", func(t *testing.T) {
		before := runtime.NumGoroutine()
		const records = 64
		started := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		var mapCalls atomic.Int64
		job := &Job{
			Name:      "cancel-worker-mid-task",
			SplitSize: records, // one map task holds every record
			Map: func(key string, value []byte, emit Emit) error {
				mapCalls.Add(1)
				once.Do(func() { close(started) })
				<-release // every record blocks until the test lets go
				emit(key, nil)
				return nil
			},
			Reduce: func(key string, values [][]byte, emit Emit) error {
				emit(key, nil)
				return nil
			},
		}
		Register(job)
		m, err := NewMaster("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = m.Close() }()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		workerErr := make(chan error, 1)
		go func() { workerErr <- RunWorkerContext(ctx, m.Addr()) }()
		runErr := make(chan error, 1)
		go func() {
			_, _, err := m.Run(job, manyRecords(records))
			runErr <- err
		}()

		<-started // the first record's Map is in progress
		cancel()
		close(release)
		select {
		case err := <-workerErr:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("worker err = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not return after cancel")
		}
		if n := mapCalls.Load(); n > 2 {
			t.Errorf("worker made %d Map calls of %d after a cancel during the first", n, records)
		}
		// The master lost its only worker mid-task: the job fails, it does
		// not hang.
		select {
		case err := <-runErr:
			if err == nil {
				t.Error("job succeeded although its only worker was cancelled mid-task")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("master did not return after its worker left")
		}
		_ = m.Close() // reports the dead worker's already-closed socket
		waitNoGoroutineLeak(t, before)
	})
}

// TestTCPHungWorkerHitsIOTimeout joins a worker that completes the
// hello but then accepts tasks without ever answering: the in-flight
// IOTimeout must fire and, with no other workers alive, fail the job
// instead of hanging forever.
func TestTCPHungWorkerHitsIOTimeout(t *testing.T) {
	job := &Job{
		Name:   "hung-worker",
		Map:    func(key string, value []byte, emit Emit) error { emit(key, nil); return nil },
		Reduce: func(key string, values [][]byte, emit Emit) error { emit(key, nil); return nil },
	}
	Register(job)
	m, err := NewMasterTCP(TCPConfig{Addr: "127.0.0.1:0", MinWorkers: 1, IOTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := sendHello(conn, time.Second, &wireStats{}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := m.Run(job, manyRecords(8))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "all workers failed") {
			t.Fatalf("err = %v, want all-workers-failed from IO timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master hung on unresponsive worker despite IOTimeout")
	}
}

// TestTCPConfigDefaults checks the zero-value timeout fill-in.
func TestTCPConfigDefaults(t *testing.T) {
	c := TCPConfig{Addr: "x", MinWorkers: 1}.withDefaults()
	if c.DialTimeout != DefaultDialTimeout || c.IOTimeout != DefaultIOTimeout {
		t.Fatalf("defaults = %+v", c)
	}
	c = TCPConfig{DialTimeout: time.Second, IOTimeout: time.Minute}.withDefaults()
	if c.DialTimeout != time.Second || c.IOTimeout != time.Minute {
		t.Fatalf("explicit timeouts overwritten: %+v", c)
	}
}

// TestRunWithContextPlainExecutor checks the graceful degradation for
// executors that do not implement ContextExecutor: the context is
// consulted before the uninterruptible Run.
func TestRunWithContextPlainExecutor(t *testing.T) {
	job := &Job{
		Name:   "plain-exec",
		Map:    func(key string, value []byte, emit Emit) error { emit(key, nil); return nil },
		Reduce: func(key string, values [][]byte, emit Emit) error { emit(key, nil); return nil },
	}
	exec := plainExecutor{}
	if _, _, err := RunWithContext(context.Background(), exec, job, manyRecords(2)); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunWithContext(ctx, exec, job, manyRecords(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// plainExecutor implements only Executor.
type plainExecutor struct{}

func (plainExecutor) Run(job *Job, input []Pair) ([]Pair, *Counters, error) {
	return nil, &Counters{}, nil
}
