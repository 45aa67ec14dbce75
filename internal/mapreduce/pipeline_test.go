package mapreduce

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestTCPStragglerRequeue is the regression test for the dispatch
// straggler bug: under the old lock-step loop, a worker goroutine
// returned as soon as the queue was momentarily empty, so a task
// requeued by a late worker failure had nobody left to run it and the
// job aborted with "dispatch finished with straggler tasks". The
// pipelined dispatcher keeps healthy writers parked on the queue until
// the phase completes, so the job must now succeed.
//
// Choreography: the slow worker takes some tasks and sits on them long
// enough for the healthy worker to drain the rest of the queue, then
// drops its connection; its in-flight tasks requeue and the healthy
// worker must pick them up.
func TestTCPStragglerRequeue(t *testing.T) {
	job := &Job{
		Name:        "tcp-straggler",
		NumReducers: 2,
		SplitSize:   1, // one task per record: plenty of tasks to strand
		Map: func(key string, value []byte, emit Emit) error {
			emit("k"+key[len(key)-1:], []byte(key))
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
	}
	Register(job)

	m, err := NewMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // slow straggler: hold in-flight tasks, then die
		defer wg.Done()
		conn, cdc := dialHello(t, m.Addr())
		var task taskMsg
		_, _ = cdc.readTask(&task)
		time.Sleep(300 * time.Millisecond)
		_ = conn.Close()
	}()
	go func() { // healthy worker
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

	out, ctr, err := m.Run(job, manyRecords(24))
	if err != nil {
		t.Fatalf("job failed despite a surviving worker: %v", err)
	}
	total := 0
	for _, p := range out {
		n, err := strconv.Atoi(string(p.Value))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 24 {
		t.Fatalf("reduce saw %d records, want 24 (lost or duplicated requeues)", total)
	}
	if ctr.MapTasks != 24 {
		t.Fatalf("MapTasks = %d, want 24", ctr.MapTasks)
	}
	_ = m.Close()
	wg.Wait()
}

// orderSensitiveJob makes shuffle order visible in the output bytes:
// reduce concatenates its values in arrival order, so any executor
// that orders equal keys differently produces different bytes. It also
// holds executors to the empty-value rule: one map output per input is
// empty but not nil, the reducer refuses a zero-length value that is
// not nil, and it emits an empty non-nil marker of its own.
func orderSensitiveJob(name string) *Job {
	return &Job{
		Name:        name,
		NumReducers: 4,
		SplitSize:   8,
		Map: func(key string, value []byte, emit Emit) error {
			id, err := strconv.Atoi(key)
			if err != nil {
				return err
			}
			for j := 0; j < 8; j++ {
				k := fmt.Sprintf("k%02d", (id*7+j*13)%31)
				emit(k, []byte(fmt.Sprintf("%d.%d", id, j)))
			}
			emit(fmt.Sprintf("k%02d", id%31), []byte{})
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			for _, v := range values {
				if len(v) == 0 && v != nil {
					return fmt.Errorf("key %s: an empty value reached the reducer as %#v, not nil", key, v)
				}
			}
			emit(key, bytes.Join(values, []byte(",")))
			emit(key+"/seen", []byte{})
			return nil
		},
	}
}

// TestShuffleDeterminismAcrossExecutors fixes one input and asserts
// identical output — reflect.DeepEqual, so a nil value and an empty one
// differ — from the Local pool and the pipelined TCP master: the
// determinism contract the merge shuffle must uphold (run under the CI
// -race gate, where dispatch interleavings vary wildly).
func TestShuffleDeterminismAcrossExecutors(t *testing.T) {
	job := orderSensitiveJob("determinism-x3")
	Register(job)
	input := manyRecords(64)

	localOut, _, err := (&Local{Workers: 4}).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	m, stop := startCluster(t, 2)
	defer stop()
	got, _, err := m.Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(localOut) {
		t.Fatalf("tcp: %d records, local has %d", len(got), len(localOut))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], localOut[i]) {
			t.Fatalf("tcp record %d = %q:%#v, local has %q:%#v",
				i, got[i].Key, got[i].Value, localOut[i].Key, localOut[i].Value)
		}
	}
}

// TestTCPCombinerShrinksShuffle runs the combiner path over the frame
// protocol and checks both correctness and that the combiner actually
// shrinks the measured shuffle (ShuffleBytes now meters real result
// frames in TCP mode).
func TestTCPCombinerShrinksShuffle(t *testing.T) {
	input := make([]Pair, 8)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: []byte("rep rep rep rep other other tail")}
	}
	plain := wordCountJob("tcp-comb-off", 3, false)
	plain.SplitSize = 2
	combined := wordCountJob("tcp-comb-on", 3, true)
	combined.SplitSize = 2
	Register(plain)
	Register(combined)

	m, stop := startCluster(t, 2)
	defer stop()

	wantOut, _, err := (&Local{}).Run(plain, input)
	if err != nil {
		t.Fatal(err)
	}
	plainOut, plainCtr, err := m.Run(plain, input)
	if err != nil {
		t.Fatal(err)
	}
	combOut, combCtr, err := m.Run(combined, input)
	if err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string][]Pair{"plain": plainOut, "combined": combOut} {
		if len(got) != len(wantOut) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(wantOut))
		}
		for i := range got {
			if got[i].Key != wantOut[i].Key || !bytes.Equal(got[i].Value, wantOut[i].Value) {
				t.Fatalf("%s record %d = %v, want %v", name, i, got[i], wantOut[i])
			}
		}
	}
	if combCtr.MapOutputs >= plainCtr.MapOutputs {
		t.Fatalf("combiner did not shrink map outputs: %d vs %d",
			combCtr.MapOutputs, plainCtr.MapOutputs)
	}
	// MapOutputs is the records entering the shuffle, on both executors:
	// what a combiner leaves, not what the map function emitted.
	for _, job := range []*Job{plain, combined} {
		_, localCtr, err := (&Local{}).Run(job, input)
		if err != nil {
			t.Fatal(err)
		}
		_, tcpCtr, err := m.Run(job, input)
		if err != nil {
			t.Fatal(err)
		}
		if localCtr.MapOutputs != tcpCtr.MapOutputs {
			t.Fatalf("%s: MapOutputs = %d on Local, %d on TCP", job.Name, localCtr.MapOutputs, tcpCtr.MapOutputs)
		}
	}
	if combCtr.ShuffleBytes >= plainCtr.ShuffleBytes {
		t.Fatalf("combiner did not shrink shuffle bytes: %d vs %d",
			combCtr.ShuffleBytes, plainCtr.ShuffleBytes)
	}
}

// TestTCPWireCountersMeterRealTraffic compares the TCP executor's
// measured shuffle against the Local executor's key+value
// approximation for the same job: real frames carry framing overhead
// on top of the payload, so the TCP number must be at least as large.
// It also checks the new wire counters are actually populated.
func TestTCPWireCountersMeterRealTraffic(t *testing.T) {
	job := shuffleHeavyJob("tcp-wirectr", 4, 8)
	Register(job)
	input := shuffleHeavyInput(256)

	_, localCtr, err := (&Local{}).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	m, stop := startCluster(t, 2)
	defer stop()
	_, tcpCtr, err := m.Run(job, input)
	if err != nil {
		t.Fatal(err)
	}

	if tcpCtr.ShuffleBytes < localCtr.ShuffleBytes {
		t.Fatalf("TCP ShuffleBytes %d < Local approximation %d; wire metering undercounts",
			tcpCtr.ShuffleBytes, localCtr.ShuffleBytes)
	}
	if tcpCtr.WireBytesOut <= 0 || tcpCtr.WireBytesIn <= 0 {
		t.Fatalf("wire byte counters empty: out=%d in=%d", tcpCtr.WireBytesOut, tcpCtr.WireBytesIn)
	}
	if tcpCtr.WireBytesIn < tcpCtr.ShuffleBytes {
		t.Fatalf("WireBytesIn %d < ShuffleBytes %d: shuffle is a subset of inbound traffic",
			tcpCtr.WireBytesIn, tcpCtr.ShuffleBytes)
	}
	if tcpCtr.EncodeNanos <= 0 || tcpCtr.DecodeNanos <= 0 {
		t.Fatalf("serialization timers empty: enc=%dns dec=%dns", tcpCtr.EncodeNanos, tcpCtr.DecodeNanos)
	}
	if localCtr.WireBytesOut != 0 || localCtr.WireBytesIn != 0 {
		t.Fatalf("Local executor reported wire traffic: %+v", localCtr)
	}
}

// TestCountersUnderElision pins what the counters mean when a job
// declares an identity phase: MapTasks/ReduceTasks count dispatched
// tasks only, the record counters do not move, and on TCP an elided map
// phase ships nothing, so ShuffleBytes (map-result frames received) is
// zero and the inbound wire total shrinks to the reduce results.
func TestCountersUnderElision(t *testing.T) {
	job := &Job{Name: "ctr-elide", NumReducers: 3, SplitSize: 32, Map: IdentityMapFunc, Reduce: IdentityReduceFunc}
	Register(job)
	input := shuffleHeavyInput(256)
	m, stop := startCluster(t, 2)
	defer stop()

	for _, exec := range []Executor{&Local{}, m} {
		run := func(identityMap, identityReduce bool) *Counters {
			t.Helper()
			j := *job
			j.IdentityMap, j.IdentityReduce = identityMap, identityReduce
			_, ctr, err := exec.Run(&j, input)
			if err != nil {
				t.Fatal(err)
			}
			return ctr
		}
		full, noMap, noReduce := run(false, false), run(true, false), run(false, true)
		if full.MapTasks != 8 || full.ReduceTasks != 3 {
			t.Fatalf("%T: executed job dispatched %d map / %d reduce tasks, want 8 / 3", exec, full.MapTasks, full.ReduceTasks)
		}
		if noMap.MapTasks != 0 || noMap.ReduceTasks != 3 {
			t.Fatalf("%T: elided map dispatched %d map / %d reduce tasks, want 0 / 3", exec, noMap.MapTasks, noMap.ReduceTasks)
		}
		if noReduce.MapTasks != 8 || noReduce.ReduceTasks != 0 {
			t.Fatalf("%T: elided reduce dispatched %d map / %d reduce tasks, want 8 / 0", exec, noReduce.MapTasks, noReduce.ReduceTasks)
		}
		for name, c := range map[string]*Counters{"map": noMap, "reduce": noReduce} {
			if c.InputRecords != full.InputRecords || c.MapOutputs != full.MapOutputs || c.OutputRecords != full.OutputRecords {
				t.Fatalf("%T: eliding the %s phase moved the record counters: %+v vs %+v", exec, name, c, full)
			}
		}
		if exec != Executor(m) {
			if noMap.ShuffleBytes != full.ShuffleBytes || noReduce.ShuffleBytes != full.ShuffleBytes {
				t.Fatalf("Local ShuffleBytes moved: %d / %d vs %d", noMap.ShuffleBytes, noReduce.ShuffleBytes, full.ShuffleBytes)
			}
			continue
		}
		if full.ShuffleBytes <= 0 || noReduce.ShuffleBytes != full.ShuffleBytes {
			t.Fatalf("TCP ShuffleBytes with the map dispatched: %d executed, %d with the reduce elided", full.ShuffleBytes, noReduce.ShuffleBytes)
		}
		if noMap.ShuffleBytes != 0 {
			t.Fatalf("TCP ShuffleBytes = %d with the map phase elided; no map-result frame crossed the wire", noMap.ShuffleBytes)
		}
		if noReduce.WireBytesIn != noReduce.ShuffleBytes {
			t.Fatalf("elided reduce: WireBytesIn %d, want only the %d map-result bytes", noReduce.WireBytesIn, noReduce.ShuffleBytes)
		}
		if noMap.WireBytesOut >= full.WireBytesOut || noReduce.WireBytesOut >= full.WireBytesOut {
			t.Fatalf("WireBytesOut did not shrink: %d executed, %d / %d elided", full.WireBytesOut, noMap.WireBytesOut, noReduce.WireBytesOut)
		}
	}
}

// TestCountersAdd covers the aggregation helper the pipeline runners
// use to accumulate per-job counters into one report.
func TestCountersAdd(t *testing.T) {
	a := &Counters{MapTasks: 1, ReduceTasks: 2, MapOutputs: 3, ShuffleBytes: 4,
		WireBytesOut: 5, WireBytesIn: 6, EncodeNanos: 7, DecodeNanos: 8}
	b := &Counters{MapTasks: 10, ReduceTasks: 20, MapOutputs: 30, ShuffleBytes: 40,
		WireBytesOut: 50, WireBytesIn: 60, EncodeNanos: 70, DecodeNanos: 80}
	a.Add(b)
	want := Counters{MapTasks: 11, ReduceTasks: 22, MapOutputs: 33, ShuffleBytes: 44,
		WireBytesOut: 55, WireBytesIn: 66, EncodeNanos: 77, DecodeNanos: 88}
	if *a != want {
		t.Fatalf("Add = %+v, want %+v", *a, want)
	}
	a.Add(nil) // nil is a no-op, not a crash
	if *a != want {
		t.Fatalf("Add(nil) changed counters: %+v", *a)
	}
}
