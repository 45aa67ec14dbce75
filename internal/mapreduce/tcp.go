package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The TCP executor splits a job across worker processes connected over
// real sockets, mirroring a Hadoop master/task-tracker deployment. Map
// and reduce functions cannot cross the wire, so — exactly like
// shipping the same jar to every Hadoop node — both master and workers
// must Register the jobs they will run; task messages carry only the
// job name and the records.
//
// Task traffic is pipelined on the master's side: every connection has
// a writer goroutine and a reader goroutine sharing a bounded in-flight
// window (maxInFlight), so the next tasks already wait in the socket
// while the worker computes one. A worker, like a Hadoop task slot,
// runs one task at a time: it reads a task, runs it and writes its
// result before it reads the next. Messages travel as binary frames
// (see wire.go); results are matched to tasks by Seq.

// Default tuning for the TCP executor. A hung or partitioned peer must
// never block the master (or a worker) forever; the deadlines bound
// every socket operation while leaving ample room for long tasks.
const (
	// DefaultDialTimeout bounds a worker's dial of the master and the
	// hello handshake on both sides.
	DefaultDialTimeout = 10 * time.Second
	// DefaultIOTimeout bounds one task's wire round trip: the master's
	// write of the task, the worker's computation, and the read of the
	// result.
	DefaultIOTimeout = 2 * time.Minute
	// maxInFlight is the per-connection pipelining window: how many
	// tasks may be outstanding on one worker socket.
	maxInFlight = 4
)

// TCPConfig configures a TCP master (see NewMasterTCP).
type TCPConfig struct {
	// Addr is the listen address (e.g. "127.0.0.1:0").
	Addr string
	// MinWorkers is how many workers must join before a job runs.
	MinWorkers int
	// DialTimeout bounds connection establishment on the worker side
	// and the hello handshake on both sides
	// (default DefaultDialTimeout).
	DialTimeout time.Duration
	// IOTimeout bounds each task exchange with a worker: the write of
	// the task message and, per in-flight task, the wait for its
	// result, which includes the worker's compute time. A worker that
	// exceeds it is treated as failed and its tasks are re-queued
	// (default DefaultIOTimeout).
	IOTimeout time.Duration
}

// withDefaults fills unset tuning fields.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = DefaultIOTimeout
	}
	return c
}

// Master coordinates TCP workers and implements Executor. A Master
// runs one job at a time; concurrent Run calls are not supported.
type Master struct {
	ln  net.Listener
	cfg TCPConfig

	mu      sync.Mutex
	conns   []*workerConn
	joined  chan struct{} // signaled on each worker join and on Close
	closed  bool
	minJoin int
}

// NewMaster starts listening on addr (e.g. "127.0.0.1:0") and waits for
// minWorkers workers to join before running any job, with default
// tuning. Use NewMasterTCP to adjust the deadlines.
func NewMaster(addr string, minWorkers int) (*Master, error) {
	return NewMasterTCP(TCPConfig{Addr: addr, MinWorkers: minWorkers})
}

// NewMasterTCP starts a master from an explicit configuration.
func NewMasterTCP(cfg TCPConfig) (*Master, error) {
	if cfg.MinWorkers < 1 {
		return nil, errors.New("mapreduce: need at least one worker")
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: listen: %w", err)
	}
	m := &Master{ln: ln, cfg: cfg, joined: make(chan struct{}, 1024), minJoin: cfg.MinWorkers}
	go m.acceptLoop()
	return m, nil
}

// Addr returns the address workers should dial.
func (m *Master) Addr() string { return m.ln.Addr().String() }

func (m *Master) acceptLoop() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Handshake off the accept loop so a slow or bogus dialer cannot
		// block other joins; the join signal doubles as the goroutine's
		// completion signal.
		go func(conn net.Conn) {
			st := &wireStats{}
			if herr := acceptHello(conn, m.cfg.DialTimeout, st); herr != nil {
				_ = conn.Close() // not a worker of this build; drop silently
				return
			}
			w := &workerConn{conn: conn, cdc: newFrameCodec(conn, st), st: st}
			m.mu.Lock()
			if m.closed {
				m.mu.Unlock()
				_ = conn.Close() // best-effort teardown of a late joiner
				return
			}
			m.conns = append(m.conns, w)
			m.mu.Unlock()
			select {
			case m.joined <- struct{}{}:
			default:
			}
		}(conn)
	}
}

// Close shuts down the master and disconnects workers (their RunWorker
// calls return nil on the resulting EOF).
func (m *Master) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	err := m.ln.Close()
	for _, c := range m.conns {
		err = errors.Join(err, c.conn.Close())
	}
	m.conns = nil
	// Wake any Run call still waiting for workers to join.
	select {
	case m.joined <- struct{}{}:
	default:
	}
	return err
}

// ConnectedWorkers reports how many workers have joined, letting tests
// and deployment scripts wait for cluster spin-up.
func (m *Master) ConnectedWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.conns)
}

// workerConn is one worker socket past its hello. The pipelined
// dispatcher writes tasks and reads results from separate goroutines;
// net.Conn and the codec both support that split.
type workerConn struct {
	conn net.Conn
	cdc  *frameCodec
	st   *wireStats
}

var _ ContextExecutor = (*Master)(nil)

// Run implements Executor: the job engine (runJob) runs in the master's
// process — splits, shuffle, spill, merge and any phase the job declares
// an identity (see Job.IdentityMap) — and the tasks it dispatches are
// farmed out to the connected workers.
func (m *Master) Run(job *Job, input []Pair) ([]Pair, *Counters, error) {
	return m.RunContext(context.Background(), job, input)
}

// RunContext implements ContextExecutor. Cancelling the context aborts
// the job promptly — in-flight task exchanges are unblocked by closing
// their sockets — and closes the master: the byte streams of
// abandoned exchanges are unrecoverable, so a cancelled master cannot
// be reused (exactly like a master whose job failed). A cancel that
// catches the engine working through an elided phase closes it too, so
// every cancelled master behaves alike and workers see a clean
// disconnect rather than corrupt frames.
func (m *Master) RunContext(ctx context.Context, job *Job, input []Pair) ([]Pair, *Counters, error) {
	if _, ok := factories.Load(job.Name); !ok {
		return nil, nil, fmt.Errorf("mapreduce: job %q not registered on master", job.Name)
	}
	workers, err := m.awaitWorkers(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
	}
	// Frame compression is per-job: arm every connection's codec for
	// task frames out; the tasks' taskFlagCompress tells workers to
	// compress result frames back.
	for _, w := range workers {
		w.cdc.compress = job.Compress
	}
	before := sumWireStats(workers)
	runner := &wireRunner{cfg: m.cfg, workers: workers}
	out, ctr, err := runJob(ctx, job, input, runner)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			_ = m.Close()
			return nil, nil, fmt.Errorf("mapreduce: job cancelled: %w", cerr)
		}
		return nil, nil, err
	}
	after := sumWireStats(workers)
	// The shuffle bytes are the map-result frames that crossed the wire —
	// actual encoded bytes, not the key+value approximation (and none at
	// all when the map phase was elided).
	ctr.ShuffleBytes = runner.mapBytesIn
	ctr.WireBytesOut = after.bytesOut - before.bytesOut
	ctr.WireBytesIn = after.bytesIn - before.bytesIn
	ctr.EncodeNanos = after.encodeNanos - before.encodeNanos
	ctr.DecodeNanos = after.decodeNanos - before.decodeNanos
	ctr.CompressedBytes += after.compressSaved - before.compressSaved // on top of the spill's
	ctr.CompressNanos = after.compressNanos - before.compressNanos
	ctr.ShardReadBytes = foreignShardBytes(runner.results...)
	return out, ctr, nil
}

// awaitWorkers blocks until MinWorkers have joined and returns the
// connections a job will use.
func (m *Master) awaitWorkers(ctx context.Context) ([]*workerConn, error) {
	for {
		m.mu.Lock()
		conns, closed := append([]*workerConn(nil), m.conns...), m.closed
		m.mu.Unlock()
		if closed {
			return nil, errors.New("master closed")
		}
		if len(conns) >= m.minJoin {
			return conns, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-m.joined:
		}
	}
}

// foreignShardBytes folds the shard meters external workers shipped on
// their results into one byte count. Each worker process reports its
// cumulative meter around every task; per foreign token the span
// max(end)-min(start) over the whole job is that process's reads while
// it worked for us. Reports stamped with this process's own token are
// skipped — those workers share the driver's meter, which the sharded
// driver reads directly.
func foreignShardBytes(phases ...[]resultMsg) int64 {
	spans := make(map[uint64][2]int64)
	for _, results := range phases {
		for _, res := range results {
			if res.ShardTok == 0 || res.ShardTok == processToken {
				continue
			}
			span, seen := spans[res.ShardTok]
			if !seen {
				span = [2]int64{res.ShardStart, res.ShardEnd}
			} else {
				span[0] = min(span[0], res.ShardStart)
				span[1] = max(span[1], res.ShardEnd)
			}
			spans[res.ShardTok] = span
		}
	}
	var total int64
	for _, span := range spans {
		if span[1] > span[0] {
			total += span[1] - span[0]
		}
	}
	return total
}

// wireSnapshot is a point-in-time sum of per-connection wireStats.
type wireSnapshot struct {
	bytesOut, bytesIn, encodeNanos, decodeNanos int64
	compressSaved, compressNanos                int64
}

func sumWireStats(workers []*workerConn) wireSnapshot {
	var s wireSnapshot
	for _, w := range workers {
		s.bytesOut += w.st.bytesOut.Load()
		s.bytesIn += w.st.bytesIn.Load()
		s.encodeNanos += w.st.encodeNanos.Load()
		s.decodeNanos += w.st.decodeNanos.Load()
		s.compressSaved += w.st.compressSaved.Load()
		s.compressNanos += w.st.compressNanos.Load()
	}
	return s
}

// wireRunner is the Master's taskRunner for one job: the pipelined
// dispatcher over the job's worker connections, plus what only the wire
// side can observe of a phase.
type wireRunner struct {
	cfg     TCPConfig
	workers []*workerConn
	// mapBytesIn is what the connections read while the map phase was
	// dispatched: its result frames.
	mapBytesIn int64
	// results keeps each dispatched phase's results (their Parts already
	// consumed) for the shard meters external workers stamped on them.
	results [][]resultMsg
}

// dispatchState is the bookkeeping one run call shares across all worker
// connections.
type dispatchState struct {
	queue   chan taskMsg // undispatched tasks; capacity covers every requeue
	results []resultMsg
	// sink consumes each successful result's Parts as it lands and the
	// stored result keeps only its Seq and shard meter — a spilling job
	// drains map output to disk here instead of holding every task's
	// runs resident.
	sink func(*resultMsg) error

	mu        sync.Mutex
	done      int
	alive     int
	failure   error
	phaseDone chan struct{} // closed on completion, failure, or last death
	closed    bool
}

func (d *dispatchState) closePhase() {
	if !d.closed {
		d.closed = true
		close(d.phaseDone)
	}
}

// requeue returns a task to the queue for another worker. The queue's
// capacity is the task count and every task is in at most one place —
// the queue, a writer's hand, or an in-flight window — so the buffered
// send cannot block.
func (d *dispatchState) requeue(t taskMsg) {
	d.queue <- t
}

func (d *dispatchState) complete(res resultMsg) {
	if res.Err != "" {
		d.fail(fmt.Errorf("mapreduce: task %d: %s", res.Seq, res.Err))
		return
	}
	if err := d.sink(&res); err != nil {
		d.fail(fmt.Errorf("mapreduce: task %d result: %w", res.Seq, err))
		return
	}
	res.Parts = nil
	d.mu.Lock()
	defer d.mu.Unlock()
	d.results[res.Seq] = res
	d.done++
	if d.done == len(d.results) {
		d.closePhase()
	}
}

// fail records the phase's first error — a task's, the sink's, or a
// master-side one (a reduce partition that could not be re-merged from
// its spill files) — and ends the phase.
func (d *dispatchState) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure == nil {
		d.failure = err
	}
	d.closePhase()
}

// workerGone retires a dead connection; the job fails only when no
// workers remain and work is still outstanding.
func (d *dispatchState) workerGone(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alive--
	if d.alive == 0 && d.done < len(d.results) && d.failure == nil {
		d.failure = fmt.Errorf("mapreduce: all workers failed: last error: %w", err)
		d.closePhase()
	}
}

// run fans tasks out to workers and collects one result per task,
// pipelining up to maxInFlight tasks per connection. A failing worker
// is dropped and its in-flight tasks re-queued for the survivors, who
// keep serving the queue until every task completes — a momentarily
// empty queue is not the end of the phase, because a failing peer may
// still return its tasks. The phase fails only when a task reports an
// error, no workers remain, or the context is cancelled; cancellation
// unblocks in-flight socket operations by closing the sockets, after
// which RunContext closes the master.
func (r *wireRunner) run(ctx context.Context, tasks []taskMsg, sink func(*resultMsg) error) error {
	if len(tasks) == 0 {
		return nil
	}
	bytesIn := sumWireStats(r.workers).bytesIn
	d := &dispatchState{
		queue:     make(chan taskMsg, len(tasks)),
		results:   make([]resultMsg, len(tasks)),
		sink:      sink,
		alive:     len(r.workers),
		phaseDone: make(chan struct{}),
	}
	for _, t := range tasks {
		d.queue <- t
	}
	// Watchdog: a cancelled context closes every worker socket so
	// in-flight reads and writes return immediately. (Expiring their
	// deadlines instead would race with a reader or writer that is just
	// arming its own per-task deadline and would overwrite the expiry;
	// the master is closed after a cancel anyway.)
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-ctx.Done():
			for _, w := range r.workers {
				_ = w.conn.Close()
			}
		case <-watchdogDone:
		}
	}()
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *workerConn) {
			defer wg.Done()
			r.runConn(w, d)
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	failure, done := d.failure, d.done
	d.mu.Unlock()
	if failure != nil {
		return failure
	}
	if done != len(tasks) {
		return errors.New("mapreduce: dispatch finished with straggler tasks")
	}
	if tasks[0].Phase == "map" {
		r.mapBytesIn = sumWireStats(r.workers).bytesIn - bytesIn
	}
	r.results = append(r.results, d.results)
	return nil
}

// runConn drives one worker connection for one phase: a writer (this
// goroutine) pulls tasks from the shared queue and encodes them, a
// reader decodes results; a window semaphore bounds the tasks in
// flight between them. Either side failing closes the socket, which
// unblocks the other; whatever tasks were still in flight are
// re-queued once both sides have stopped.
func (r *wireRunner) runConn(w *workerConn, d *dispatchState) {
	inflight := make(chan taskMsg, maxInFlight) // FIFO of tasks awaiting results
	sem := make(chan struct{}, maxInFlight)     // window slots; released per result
	readerDead := make(chan struct{})
	var readErr error // written by the reader before readerDead closes

	go func() { // reader
		defer close(readerDead)
		for {
			t, ok := <-inflight
			if !ok {
				return // writer finished cleanly and nothing is in flight
			}
			var res resultMsg
			err := w.conn.SetReadDeadline(time.Now().Add(r.cfg.IOTimeout))
			if err == nil {
				_, err = w.cdc.readResult(&res)
			}
			if err == nil && res.Seq != t.Seq {
				err = fmt.Errorf("mapreduce: worker answered task %d with result %d", t.Seq, res.Seq)
			}
			if err != nil {
				d.requeue(t)
				readErr = err
				return
			}
			d.complete(res)
			<-sem
		}
	}()

	var writeErr error
writerLoop:
	for {
		var t taskMsg
		select {
		case t = <-d.queue:
		case <-d.phaseDone:
			break writerLoop
		case <-readerDead:
			break writerLoop
		}
		select {
		case sem <- struct{}{}:
		case <-d.phaseDone:
			d.requeue(t)
			break writerLoop
		case <-readerDead:
			d.requeue(t)
			break writerLoop
		}
		inflight <- t // capacity == maxInFlight, and sem holds a slot: never blocks
		wt := t
		if t.load != nil {
			// Merge the partition for encoding only; the in-flight copy
			// keeps no records, so a requeue re-merges from the runs instead
			// of pinning the partition in memory. A load failure is a
			// master-side disk error, not this worker's fault: fail the
			// phase rather than retrying the task elsewhere.
			recs, lerr := collectPairs(t.load, t.loadRecords)
			if lerr != nil {
				d.fail(fmt.Errorf("mapreduce: task %d load: %w", t.Seq, lerr))
				// Fall through the write-error teardown so the socket close
				// unblocks this connection's reader promptly; the phase
				// failure above is what run reports.
				writeErr = lerr
				break
			}
			wt.Records = recs
		}
		writeErr = w.conn.SetWriteDeadline(time.Now().Add(r.cfg.IOTimeout))
		if writeErr == nil {
			_, writeErr = w.cdc.writeTask(&wt)
		}
		if writeErr != nil {
			// The task is in the in-flight FIFO; the teardown below
			// requeues it after the reader stops. A record that failed to
			// expand is the job's fault, as a load failure is: fail the
			// phase rather than retrying the task elsewhere. Its frame is
			// cut short, so the connection goes down with it all the same.
			if errors.Is(writeErr, errExpand) {
				d.fail(fmt.Errorf("mapreduce: task %d: %w", t.Seq, writeErr))
			}
			break
		}
	}
	close(inflight)
	if writeErr != nil {
		// Unblock the reader (it may be waiting on a result that will
		// never come) and let it observe the closed channel.
		_ = w.conn.Close()
	}
	<-readerDead
	// Both sides have stopped: requeue everything still in flight.
	for t := range inflight {
		d.requeue(t)
	}
	if err := errors.Join(writeErr, readErr); err != nil {
		_ = w.conn.Close()
		d.workerGone(err)
	}
}

// RunWorker connects to a master and serves tasks until the master
// closes the connection, at which point it returns nil. Jobs must have
// been Registered in this process.
func RunWorker(addr string) error {
	return RunWorkerContext(context.Background(), addr)
}

// RunWorkerContext connects to a master (bounded by DefaultDialTimeout,
// which also bounds the hello handshake) and serves tasks one at a time
// until the master closes the connection (returns nil) or ctx is
// cancelled (returns the context error, within one Map or Reduce call
// of a task in progress; a cancelled task's result is never sent). A
// frame that is not a well-formed task is an error, not a shutdown.
// The idle wait for the next task is unbounded — a healthy master may
// simply have no work — but every result write is bounded by
// DefaultIOTimeout.
func RunWorkerContext(ctx context.Context, addr string) (err error) {
	dialer := net.Dialer{Timeout: DefaultDialTimeout}
	conn, derr := dialer.DialContext(ctx, "tcp", addr)
	if derr != nil {
		return fmt.Errorf("mapreduce: dial master: %w", derr)
	}
	defer func() { err = errors.Join(err, conn.Close()) }()
	st := &wireStats{}
	if herr := sendHello(conn, DefaultDialTimeout, st); herr != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return herr
	}
	cdc := newFrameCodec(conn, st)
	cdc.mapBodies = true
	// Watchdog: cancellation force-expires the socket so a blocked
	// read (idle worker) or write (mid-send) returns immediately.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.SetDeadline(time.Now())
		case <-watchdogDone:
		}
	}()

	for {
		done, err := serveNext(ctx, conn, cdc)
		if done {
			return err
		}
	}
}

// serveNext reads one task, runs it and writes its result. done ends
// the worker, with err its return value. The task's frame body is
// mapped outside the Go heap (cdc maps bodies) and freed here, once the
// result frame — which may alias it — is written or abandoned: every
// row a task carries lives exactly as long as the task.
func serveNext(ctx context.Context, conn net.Conn, cdc *frameCodec) (done bool, err error) {
	var task taskMsg
	_, rerr := cdc.readTask(&task)
	defer cdc.free(task.frame)
	if cerr := ctx.Err(); cerr != nil {
		return true, cerr
	}
	if errors.Is(rerr, errMalformedFrame) {
		return true, fmt.Errorf("mapreduce: read task: %w", rerr)
	}
	if rerr != nil {
		return true, nil // master closed the connection: clean shutdown
	}
	// Mirror the job's compression choice onto result frames; the
	// master decodes 'C' frames whether or not it asked for them.
	cdc.compress = task.Flags&taskFlagCompress != 0
	res := serveTask(ctx, &task)
	if cerr := ctx.Err(); cerr != nil {
		return true, cerr // a cancelled task's error is the worker's own, not the job's
	}
	werr := conn.SetWriteDeadline(time.Now().Add(DefaultIOTimeout))
	if werr == nil {
		_, werr = cdc.writeResult(&res)
	}
	if werr != nil {
		if cerr := ctx.Err(); cerr != nil {
			return true, cerr
		}
		return true, fmt.Errorf("mapreduce: send result: %w", werr)
	}
	return false, nil
}

// serveTask runs one task off the wire: it resolves the job from this
// process's job table (see factory.go), runs the task body and flattens a
// failure into the result's Err. The registered shard
// meter is sampled around the task; a nonzero end stamps the result with
// this process's meter span so a master in another process can account
// the reads (see SetShardMeter).
func serveTask(ctx context.Context, task *taskMsg) resultMsg {
	meterStart := shardMeterNow()
	res := resultMsg{Seq: task.Seq}
	job, err := resolveJob(task.JobName, task.Conf)
	if err == nil {
		res = executeTask(ctx, job, task)
		err = res.err
	}
	if err != nil {
		res.Err = err.Error()
	}
	if end := shardMeterNow(); end > 0 {
		res.ShardTok = workerShardToken
		res.ShardStart = meterStart
		res.ShardEnd = end
	}
	return res
}
