package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

func matrixOfSize(r, c int) *matrix.Dense { return matrix.NewDense(r, c) }

func TestClusterMapReduceMatchesLocalDriver(t *testing.T) {
	l := mixture(t, 180, 12, 3, 0.03, 20)
	direct, err := Cluster(l.Points, Config{K: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	viaMR, err := ClusterMapReduceShipped(l.Points, Config{K: 3, Seed: 21}, &mapreduce.Local{})
	if err != nil {
		t.Fatal(err)
	}
	// Same partition, same per-bucket seeds: identical partitions.
	agree, err := metrics.Accuracy(direct.Labels, viaMR.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Fatalf("MapReduce driver disagrees with local driver: overlap %v", agree)
	}
	if direct.GramBytes != viaMR.GramBytes {
		t.Fatalf("GramBytes differ: %d vs %d", direct.GramBytes, viaMR.GramBytes)
	}
	if direct.Clusters != viaMR.Clusters {
		t.Fatalf("cluster counts differ: %d vs %d", direct.Clusters, viaMR.Clusters)
	}
}

func TestClusterMapReduceAccuracy(t *testing.T) {
	l := mixture(t, 160, 16, 4, 0.02, 22)
	res, err := ClusterMapReduceShipped(l.Points, Config{K: 4, Seed: 23}, &mapreduce.Local{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestClusterMapReduceOverTCP(t *testing.T) {
	l := mixture(t, 100, 8, 2, 0.03, 24)
	// The jobs travel by registered name plus Conf, and the in-process
	// TCP workers share this package's factory registry — the same way
	// Hadoop workers share the job jar.
	m, err := mapreduce.NewMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := mapreduce.RunWorker(m.Addr()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join")
		}
		time.Sleep(time.Millisecond)
	}

	res, err := ClusterMapReduceShipped(l.Points, Config{K: 2, Seed: 25}, m)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("TCP accuracy = %v", acc)
	}
	// The driver aggregates executor counters from both stages onto the
	// result; over TCP that includes real wire traffic.
	if res.MapReduce == nil {
		t.Fatal("Result.MapReduce not populated by the MapReduce driver")
	}
	if res.MapReduce.MapTasks == 0 || res.MapReduce.ReduceTasks == 0 {
		t.Fatalf("stage counters not aggregated: %+v", res.MapReduce)
	}
	if res.MapReduce.WireBytesOut <= 0 || res.MapReduce.WireBytesIn <= 0 {
		t.Fatalf("TCP wire counters not aggregated: %+v", res.MapReduce)
	}
	m.Close()
	wg.Wait()
}

func TestIndexCodecRoundTrip(t *testing.T) {
	in := []int{0, 1, 42, 1 << 20}
	out, err := decodeIndices(encodeIndices(in))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(in) != fmt.Sprint(out) {
		t.Fatalf("round trip: %v -> %v", in, out)
	}
	if _, err := decodeIndices([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for a payload longer than its count")
	}
}

func TestLabelCodecRoundTrip(t *testing.T) {
	idx, label, k := decodeLabel(encodeLabel(7, 3, 11))
	if idx != 7 || label != 3 || k != 11 {
		t.Fatalf("round trip: %d %d %d", idx, label, k)
	}
}

// TestClusterOneBucketEmpty feeds the solve an empty bucket — what an
// index list with count zero decodes to on a worker: an empty solution,
// not a panic.
func TestClusterOneBucketEmpty(t *testing.T) {
	l := mixture(t, 20, 4, 2, 0.03, 5)
	solver, err := newBucketSolver(solvePolicy{N: 20, Cols: 4, K: 2, Sigma: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var scratch []float64
	sol, err := solver.solve(bucket{points: l.Points}, &scratch)
	if err != nil || len(sol.Labels) != 0 {
		t.Fatalf("empty bucket: %+v, %v", sol, err)
	}
}
