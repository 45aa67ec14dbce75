package mapreduce

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// shuffleHeavyJob emits fanout small records per input record under
// rotating keys, so almost all of the job's work is shuffle traffic:
// many tiny pairs crossing the wire into several reduce partitions.
func shuffleHeavyJob(name string, reducers, fanout int) *Job {
	return &Job{
		Name:        name,
		NumReducers: reducers,
		SplitSize:   64,
		Map: func(key string, value []byte, emit Emit) error {
			base, err := strconv.Atoi(key)
			if err != nil {
				return err
			}
			for i := 0; i < fanout; i++ {
				emit(fmt.Sprintf("k%04d", (base*fanout+i)%997), value)
			}
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
	}
}

// shuffleHeavyInput builds n one-byte records keyed by index.
func shuffleHeavyInput(n int) []Pair {
	input := make([]Pair, n)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: []byte{byte(i)}}
	}
	return input
}

// benchCluster starts a master and w in-process TCP workers without
// testing.T plumbing, for benchmarks.
func benchCluster(b *testing.B, cfg TCPConfig, w int) (*Master, func()) {
	b.Helper()
	m, err := NewMasterTCP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunWorker(m.Addr())
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < w {
		if time.Now().After(deadline) {
			b.Fatal("workers did not join")
		}
		time.Sleep(time.Millisecond)
	}
	return m, func() {
		_ = m.Close()
		wg.Wait()
	}
}

// BenchmarkTCPShuffleHeavy is the acceptance benchmark for the
// pipelined data plane: many small pairs, 4 reducers, 2 workers.
func BenchmarkTCPShuffleHeavy(b *testing.B) {
	job := shuffleHeavyJob("bench-tcp-shuffle", 4, 32)
	Register(job)
	m, stop := benchCluster(b, TCPConfig{Addr: "127.0.0.1:0", MinWorkers: 2}, 2)
	defer stop()
	input := shuffleHeavyInput(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Run(job, input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalShuffleHeavy is the Local-executor twin, isolating the
// shuffle/sort cost from the wire.
func BenchmarkLocalShuffleHeavy(b *testing.B) {
	job := shuffleHeavyJob("bench-local-shuffle", 4, 32)
	input := shuffleHeavyInput(2048)
	exec := &Local{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Run(job, input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortPairsStable times the executor's stable pair sort on a
// shuffle-shaped workload (many short keys, heavy duplication).
func BenchmarkSortPairsStable(b *testing.B) {
	base := make([]Pair, 1<<14)
	for i := range base {
		base[i] = Pair{Key: fmt.Sprintf("k%04d", (i*2654435761)%997), Value: []byte{byte(i)}}
	}
	scratch := make([]Pair, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, base)
		sortPairs(scratch)
	}
}

// BenchmarkSortSliceStable is the pre-PR reflection-based baseline the
// specialized sort is measured against.
func BenchmarkSortSliceStable(b *testing.B) {
	base := make([]Pair, 1<<14)
	for i := range base {
		base[i] = Pair{Key: fmt.Sprintf("k%04d", (i*2654435761)%997), Value: []byte{byte(i)}}
	}
	scratch := make([]Pair, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, base)
		sort.SliceStable(scratch, func(x, y int) bool { return scratch[x].Key < scratch[y].Key })
	}
}

// BenchmarkWireLargeFrame pushes one 4 MiB task frame — the shape of a
// stage-2 reduce task carrying an embedded bucket — through the frame
// codec: encode into an in-memory stream, decode back. Besides the
// usual B/op it reports the receive side's allocation per payload byte
// (readExactly's growth policy: 1 would be the body alone; the hardened
// geometric read stays under 2, the chunk-append it replaced cost ~5).
func BenchmarkWireLargeFrame(b *testing.B) {
	const payload = 4 << 20
	task := taskMsg{Seq: 1, JobName: "bench/large", Phase: "reduce",
		Records: []Pair{{Key: "00000000000000aa", Value: make([]byte, payload)}}}
	var st wireStats
	var stream bytes.Buffer
	enc := &frameCodec{w: &stream, st: &st}
	dec := &frameCodec{br: bufio.NewReaderSize(&stream, 1<<16), st: &st}
	b.SetBytes(payload)
	b.ReportAllocs()
	var recvAlloc uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.writeTask(&task); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		var back taskMsg
		if _, err := dec.readTask(&back); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		recvAlloc += after.TotalAlloc - before.TotalAlloc
		if len(back.Records) != 1 || len(back.Records[0].Value) != payload {
			b.Fatal("large frame did not round-trip")
		}
	}
	b.ReportMetric(float64(recvAlloc)/float64(b.N)/payload, "recvB/payloadB")
}
