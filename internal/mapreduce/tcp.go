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
// Task traffic is pipelined: every connection has a writer goroutine
// and a reader goroutine sharing a bounded in-flight window
// (TCPConfig.MaxInFlight), so the master encodes task i+1 while the
// worker computes task i and the master decodes task i-1's result.
// The worker mirrors the split with a decode → compute → encode
// pipeline. Messages travel as binary frames (see wire.go); results are
// matched to tasks by Seq.

// Register makes a job available to TCP workers in this process. It
// must be called before RunWorker receives tasks for the job. Jobs are
// keyed by Name; re-registering a name replaces the previous job.
func Register(job *Job) {
	if job.Name == "" {
		//lint:ignore panicfree registration happens at process start-up; a nameless job is an API-misuse bug that must fail loudly before any task runs
		panic("mapreduce: Register needs a job Name")
	}
	registry.Store(job.Name, job)
}

var registry sync.Map // string -> *Job

func lookupJob(name string) (*Job, bool) {
	v, ok := registry.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Job), true
}

// taskMsg is one unit of work sent master -> worker.
type taskMsg struct {
	Seq     int
	JobName string
	Phase   string // "map" or "reduce"
	// Conf carries the factory configuration for closure-free jobs.
	Conf []byte
	// NumReducers tells map tasks how to partition their output.
	NumReducers int
	Records     []Pair

	// Flags carries per-job wire options (taskFlag* bits, e.g. "compress
	// your result frames").
	Flags uint64

	// load lazily materializes Records just before the task is encoded
	// (nil for eagerly-built tasks). The spill-enabled master hands out
	// reduce partitions this way so that only the in-flight window's
	// partitions are ever resident; the copy queued for requeue keeps
	// load and nil Records, so a straggler re-dispatch re-merges from
	// the spill files. Never shipped.
	load func() ([]Pair, error)
}

// resultMsg is the worker's reply.
type resultMsg struct {
	Seq int
	// Parts holds per-partition map output (each partition key-sorted),
	// or a single key-sorted slice of reduce output at index 0.
	Parts [][]Pair
	Err   string

	// Shard meter snapshot (see SetShardMeter): the worker's
	// process-cumulative shard bytes read before (ShardStart) and after
	// (ShardEnd) this task, tagged with the worker's process token. All
	// zero when the worker has read no shard bytes at all.
	ShardTok   uint64
	ShardStart int64
	ShardEnd   int64
}

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
	// DefaultMaxInFlight is the per-connection pipelining window: how
	// many tasks may be outstanding on one worker socket.
	DefaultMaxInFlight = 4
	// workerPipelineDepth is how many decoded tasks / pending results
	// the worker buffers between its decode, compute, and encode stages.
	workerPipelineDepth = 2
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
	// MaxInFlight caps the tasks pipelined on one worker connection.
	// 1 replays the original lock-step exchange; the default
	// (DefaultMaxInFlight) overlaps encode, compute, and decode.
	MaxInFlight int
}

// withDefaults fills unset tuning fields.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = DefaultIOTimeout
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
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
// tuning. Use NewMasterTCP to adjust deadlines or the pipelining window.
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

func (m *Master) workers() []*workerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*workerConn(nil), m.conns...)
}

var _ ContextExecutor = (*Master)(nil)

// Run implements Executor: map tasks and reduce partitions are farmed
// out to connected workers; the shuffle happens on the master, and so
// does a phase the job declares an identity (see Job.IdentityMap).
func (m *Master) Run(job *Job, input []Pair) ([]Pair, *Counters, error) {
	return m.RunContext(context.Background(), job, input)
}

// RunContext implements ContextExecutor. Cancelling the context aborts
// the job promptly — in-flight task exchanges are unblocked by closing
// their sockets — and closes the master: the byte streams of
// abandoned exchanges are unrecoverable, so a cancelled master cannot
// be reused (exactly like a master whose job failed).
func (m *Master) RunContext(ctx context.Context, job *Job, input []Pair) (_ []Pair, _ *Counters, err error) {
	if err := job.validate(); err != nil {
		return nil, nil, err
	}
	if _, ok := lookupJob(job.Name); !ok {
		if _, fok := factories.Load(job.Name); !fok || len(job.Conf) == 0 {
			return nil, nil, fmt.Errorf("mapreduce: job %q not registered on master", job.Name)
		}
	}
	// Wait until enough workers have joined.
	for {
		m.mu.Lock()
		n, closed := len(m.conns), m.closed
		m.mu.Unlock()
		if closed {
			return nil, nil, errors.New("mapreduce: master closed")
		}
		if n >= m.minJoin {
			break
		}
		select {
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, ctx.Err())
		case <-m.joined:
		}
	}
	workers := m.workers()
	numReducers := job.numReducers()
	ctr := &Counters{InputRecords: len(input)}
	// Frame compression is per-job: arm every connection's codec for
	// task frames out, and tell workers (taskFlagCompress) to compress
	// result frames back.
	var taskFlags uint64
	if job.Compress {
		taskFlags |= taskFlagCompress
	}
	for _, w := range workers {
		w.cdc.setCompress(job.Compress)
	}
	wireBefore := sumWireStats(workers)

	// ---- map phase ----
	// With Job.SpillBytes set, map results are drained to the spill
	// manager as they arrive (the sink runs inside complete, so the
	// master never holds more than the in-flight window's results), and
	// reduce partitions are later re-merged from the runs lazily, one
	// in-flight task at a time.
	var ss *spillSet
	var sink func(*resultMsg) error
	sunkOutputs := 0
	if job.SpillBytes > 0 {
		ss = newSpillSet(numReducers, job.SpillBytes, job.Compress)
		defer func() { err = errors.Join(err, ss.Close()) }()
		sink = func(res *resultMsg) error {
			if len(res.Parts) > numReducers {
				return fmt.Errorf("worker returned partition %d of %d", len(res.Parts)-1, numReducers)
			}
			for _, pairs := range res.Parts {
				sunkOutputs += len(pairs)
			}
			return ss.add(res.Seq, res.Parts)
		}
	}
	mapTasks := splits(input, job.splitSize())
	var mapResults []resultMsg
	if job.IdentityMap {
		mapResults, err = m.elidedMap(ctx, job, mapTasks, sink)
	} else {
		ctr.MapTasks = len(mapTasks)
		msgs := make([]taskMsg, len(mapTasks))
		for i, t := range mapTasks {
			msgs[i] = taskMsg{Seq: i, JobName: job.Name, Phase: "map", Conf: job.Conf, NumReducers: numReducers, Records: t, Flags: taskFlags}
		}
		mapResults, err = m.dispatch(ctx, workers, msgs, sink)
	}
	if err != nil {
		return nil, nil, err
	}
	// The shuffle bytes are the map-result frames that just crossed the
	// wire — actual encoded bytes, not the key+value approximation (and
	// none at all when the map phase was elided).
	ctr.ShuffleBytes = sumWireStats(workers).bytesIn - wireBefore.bytesIn

	// ---- shuffle ----
	var partitions [][]Pair // in-memory mode only; spilled partitions are re-merged on demand
	if ss != nil {
		ctr.MapOutputs = sunkOutputs
		if serr := ss.seal(); serr != nil {
			return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, serr)
		}
	} else {
		// In-memory shuffle: per-partition k-way merge of the map-side
		// runs, all partitions resident before dispatch.
		for _, res := range mapResults {
			if len(res.Parts) > numReducers {
				return nil, nil, fmt.Errorf("mapreduce: worker returned partition %d of %d", len(res.Parts)-1, numReducers)
			}
			for _, pairs := range res.Parts {
				ctr.MapOutputs += len(pairs)
			}
		}
		partitions = make([][]Pair, numReducers)
		var shuffleWG sync.WaitGroup
		for p := 0; p < numReducers; p++ {
			shuffleWG.Add(1)
			go func(p int) {
				defer shuffleWG.Done()
				runs := make([][]Pair, 0, len(mapResults))
				for _, res := range mapResults {
					if p < len(res.Parts) && len(res.Parts[p]) > 0 {
						runs = append(runs, res.Parts[p])
					}
				}
				partitions[p] = MergeRuns(runs)
			}(p)
		}
		shuffleWG.Wait()
	}

	// ---- reduce phase ----
	// Dispatched or elided, the output is one key-sorted run per
	// partition and assembly is the same tie-broken merge, in partition
	// order.
	outRuns := make([][]Pair, 0, numReducers)
	var redResults []resultMsg
	if job.IdentityReduce {
		for p := 0; p < numReducers; p++ {
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, m.cancelled(cerr)
			}
			var pairs []Pair
			if ss != nil {
				if pairs, err = ss.materialize(p); err != nil {
					return nil, nil, fmt.Errorf("mapreduce: %s: partition %d: %w", job.Name, p, err)
				}
			} else {
				pairs = partitions[p]
			}
			outRuns = append(outRuns, pairs)
		}
	} else {
		ctr.ReduceTasks = numReducers
		rmsgs := make([]taskMsg, numReducers)
		for p := range rmsgs {
			rmsgs[p] = taskMsg{Seq: p, JobName: job.Name, Phase: "reduce", Conf: job.Conf, Flags: taskFlags}
			if ss != nil {
				rmsgs[p].load = func() ([]Pair, error) { return ss.materialize(p) }
			} else {
				rmsgs[p].Records = partitions[p]
			}
		}
		redResults, err = m.dispatch(ctx, workers, rmsgs, nil)
		if err != nil {
			return nil, nil, err
		}
		// Workers return reduce output key-sorted.
		for _, res := range redResults {
			if len(res.Parts) > 0 {
				outRuns = append(outRuns, res.Parts[0])
			}
		}
	}
	out := MergeRuns(outRuns)
	ctr.OutputRecords = len(out)

	wireAfter := sumWireStats(workers)
	ctr.WireBytesOut = wireAfter.bytesOut - wireBefore.bytesOut
	ctr.WireBytesIn = wireAfter.bytesIn - wireBefore.bytesIn
	ctr.EncodeNanos = wireAfter.encodeNanos - wireBefore.encodeNanos
	ctr.DecodeNanos = wireAfter.decodeNanos - wireBefore.decodeNanos
	ctr.CompressedBytes = wireAfter.compressSaved - wireBefore.compressSaved
	ctr.CompressNanos = wireAfter.compressNanos - wireBefore.compressNanos
	if ss != nil {
		var raw int64
		ctr.SpillBytes, raw, ctr.SpillNanos = ss.stats()
		ctr.CompressedBytes += raw - ctr.SpillBytes
	}
	ctr.ShardReadBytes += foreignShardBytes(mapResults, redResults)
	return out, ctr, nil
}

// elidedMap is the map phase of a job that declares Job.IdentityMap: no
// task is dispatched — each split is its own map output, so the master
// partitions and sorts it exactly as a worker would have and hands the
// runs to the same sink (or result slots) the dispatched phase fills.
// Splits are handled one after another: an identity map's records are
// already in the master's memory and partitioning them costs less than
// encoding them would have.
func (m *Master) elidedMap(ctx context.Context, job *Job, tasks [][]Pair, sink func(*resultMsg) error) ([]resultMsg, error) {
	results := make([]resultMsg, len(tasks))
	for i, split := range tasks {
		if err := ctx.Err(); err != nil {
			return nil, m.cancelled(err)
		}
		parts, err := mapSideRuns(job, job.numReducers(), identityMapOutput(job, split))
		if err != nil {
			return nil, fmt.Errorf("mapreduce: task %d: %w", i, err)
		}
		results[i] = resultMsg{Seq: i, Parts: parts}
		if sink != nil {
			if err := sink(&results[i]); err != nil {
				return nil, fmt.Errorf("mapreduce: task %d result: %w", i, err)
			}
			results[i].Parts = nil
		}
	}
	return results, nil
}

// cancelled tears the master down after a cancellation and returns the
// error RunContext reports. In-flight exchanges leave unusable byte
// streams behind (see RunContext); a cancel during an elided phase
// closes the master too, so every cancelled master behaves alike and
// workers see a clean disconnect.
func (m *Master) cancelled(err error) error {
	_ = m.Close()
	return fmt.Errorf("mapreduce: job cancelled: %w", err)
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

// dispatchState is the bookkeeping one dispatch call shares across all
// worker connections.
type dispatchState struct {
	queue   chan taskMsg // undispatched tasks; capacity covers every requeue
	results []resultMsg
	// sink, when set, consumes each successful result's Parts as it
	// lands (under mu, so calls are serialized) and the stored result
	// keeps only its Seq — the spill-enabled master drains map output
	// to disk here instead of holding every task's runs resident.
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
	d.mu.Lock()
	defer d.mu.Unlock()
	if res.Err != "" {
		if d.failure == nil {
			d.failure = fmt.Errorf("mapreduce: task %d: %s", res.Seq, res.Err)
		}
		d.closePhase()
		return
	}
	if d.sink != nil {
		if err := d.sink(&res); err != nil {
			if d.failure == nil {
				d.failure = fmt.Errorf("mapreduce: task %d result: %w", res.Seq, err)
			}
			d.closePhase()
			return
		}
		res.Parts = nil
	}
	d.results[res.Seq] = res
	d.done++
	if d.done == len(d.results) {
		d.closePhase()
	}
}

// fail records a master-side error (e.g. a reduce partition that could
// not be re-merged from its spill files) and ends the phase.
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

// dispatch fans tasks out to workers and collects one result per task,
// pipelining up to MaxInFlight tasks per connection. A failing worker
// is dropped and its in-flight tasks re-queued for the survivors, who
// keep serving the queue until every task completes — a momentarily
// empty queue is not the end of the phase, because a failing peer may
// still return its tasks. Dispatch fails only when a task reports an
// error, no workers remain, or the context is cancelled; cancellation
// unblocks in-flight socket operations by closing the sockets, and
// closes the master (see RunContext).
func (m *Master) dispatch(ctx context.Context, workers []*workerConn, tasks []taskMsg, sink func(*resultMsg) error) ([]resultMsg, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	d := &dispatchState{
		queue:     make(chan taskMsg, len(tasks)),
		results:   make([]resultMsg, len(tasks)),
		sink:      sink,
		alive:     len(workers),
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
			for _, w := range workers {
				_ = w.conn.Close()
			}
		case <-watchdogDone:
		}
	}()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *workerConn) {
			defer wg.Done()
			m.runConn(w, d)
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The abandoned streams are unusable; tear the master down so
		// workers see a clean disconnect rather than corrupt frames.
		return nil, m.cancelled(err)
	}
	d.mu.Lock()
	failure, done := d.failure, d.done
	d.mu.Unlock()
	if failure != nil {
		return nil, failure
	}
	if done != len(tasks) {
		return nil, errors.New("mapreduce: dispatch finished with straggler tasks")
	}
	return d.results, nil
}

// runConn drives one worker connection for one phase: a writer (this
// goroutine) pulls tasks from the shared queue and encodes them, a
// reader decodes results; a window semaphore bounds the tasks in
// flight between them. Either side failing closes the socket, which
// unblocks the other; whatever tasks were still in flight are
// re-queued once both sides have stopped.
func (m *Master) runConn(w *workerConn, d *dispatchState) {
	window := m.cfg.MaxInFlight
	inflight := make(chan taskMsg, window) // FIFO of tasks awaiting results
	sem := make(chan struct{}, window)     // window slots; released per result
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
			err := w.conn.SetReadDeadline(time.Now().Add(m.cfg.IOTimeout))
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
		inflight <- t // capacity == window, and sem holds a slot: never blocks
		wt := t
		if t.load != nil {
			// Materialize the lazily-loaded records for encoding only; the
			// in-flight copy stays unmaterialized so a requeue re-merges
			// from disk instead of pinning the partition in memory. A load
			// failure is a master-side disk error, not this worker's fault:
			// fail the phase rather than retrying the task elsewhere.
			recs, lerr := t.load()
			if lerr != nil {
				d.fail(fmt.Errorf("mapreduce: task %d load: %w", t.Seq, lerr))
				// Fall through the write-error teardown so the socket close
				// unblocks this connection's reader promptly; the phase
				// failure above is what dispatch reports.
				writeErr = lerr
				break
			}
			wt.Records = recs
		}
		writeErr = w.conn.SetWriteDeadline(time.Now().Add(m.cfg.IOTimeout))
		if writeErr == nil {
			_, writeErr = w.cdc.writeTask(&wt)
		}
		if writeErr != nil {
			// The task is in the in-flight FIFO; the teardown below
			// requeues it after the reader stops.
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
// which also bounds the hello handshake) and serves tasks until the
// master closes the connection (returns nil) or ctx is cancelled
// (returns the context error). Decode, compute, and encode run as a
// three-stage pipeline so the worker deserializes the next task and
// serializes the previous result while the current task computes. The
// idle wait for the next task is unbounded — a healthy master may
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

	tasks := make(chan taskMsg, workerPipelineDepth)
	results := make(chan resultMsg, workerPipelineDepth)
	var encodeErr error
	encodeDone := make(chan struct{})

	go func() { // decoder: socket -> tasks
		defer close(tasks)
		for {
			var task taskMsg
			if _, derr := cdc.readTask(&task); derr != nil {
				// Master closed the stream (clean shutdown), the
				// watchdog expired the socket, or the encoder closed the
				// connection after its own failure; the compute loop's
				// exit path reports whichever applies.
				return
			}
			tasks <- task
		}
	}()
	go func() { // encoder: results -> socket
		defer close(encodeDone)
		for res := range results {
			if encodeErr != nil {
				continue // drain so the compute loop never blocks
			}
			if werr := conn.SetWriteDeadline(time.Now().Add(DefaultIOTimeout)); werr != nil {
				encodeErr = werr
			} else if _, werr := cdc.writeResult(&res); werr != nil {
				encodeErr = werr
			}
			if encodeErr != nil {
				// Error the decoder out too: without a working result
				// path, accepting more tasks only wastes master time.
				_ = conn.Close()
			}
		}
	}()
	for task := range tasks { // compute
		if ctx.Err() != nil {
			continue // drain without computing; the ctx error is returned below
		}
		// Mirror the job's compression choice onto result frames. The
		// codec flag is atomic: the encoder goroutine may be mid-write
		// for an earlier task, and the master decodes 'C' frames whether
		// or not it asked for them.
		cdc.setCompress(task.Flags&taskFlagCompress != 0)
		results <- executeTask(task)
	}
	close(results)
	<-encodeDone
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if encodeErr != nil {
		return fmt.Errorf("mapreduce: send result: %w", encodeErr)
	}
	return nil // master closed the connection: clean shutdown
}

// executeTask runs one map or reduce task against the local registry
// (or factory, for closure-free jobs). The registered shard meter is
// sampled around the task; a nonzero end stamps the result with this
// process's meter span so a master in another process can account the
// reads (see SetShardMeter).
func executeTask(task taskMsg) (res resultMsg) {
	res = resultMsg{Seq: task.Seq}
	meterStart := shardMeterNow()
	defer func() {
		if end := shardMeterNow(); end > 0 {
			res.ShardTok = workerShardToken
			res.ShardStart = meterStart
			res.ShardEnd = end
		}
	}()
	job, err := resolveJob(task.JobName, task.Conf)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	switch task.Phase {
	case "map":
		var local []Pair
		emit := collect(&local)
		for _, rec := range task.Records {
			if err := job.Map(rec.Key, rec.Value, emit); err != nil {
				res.Err = err.Error()
				return res
			}
		}
		parts, err := mapSideRuns(job, task.NumReducers, local)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Parts = parts
	case "reduce":
		pairs := task.Records
		sortPairs(pairs) // master pre-merges, so this is the O(n) fast path
		var out []Pair
		emit := collect(&out)
		err := groupSorted(pairs, func(key string, values [][]byte) error {
			return job.Reduce(key, values, emit)
		})
		if err != nil {
			res.Err = err.Error()
			return res
		}
		// Sort the output here, in parallel across workers, so the
		// master's final assembly is a pure merge.
		sortPairs(out)
		res.Parts = [][]Pair{out}
	default:
		res.Err = fmt.Sprintf("unknown phase %q", task.Phase)
	}
	return res
}
