package core

import (
	"bytes"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

func TestClusterMapReduceShippedMatchesLocal(t *testing.T) {
	l := mixture(t, 160, 10, 3, 0.03, 50)
	cfg := Config{K: 3, Seed: 51}
	direct, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{Workers: 4}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	agree, err := metrics.Accuracy(direct.Labels, shipped.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Fatalf("shipped driver disagrees with local: %v", agree)
	}
	if direct.GramBytes != shipped.GramBytes {
		t.Fatalf("GramBytes %d vs %d", direct.GramBytes, shipped.GramBytes)
	}
}

func TestClusterMapReduceShippedOverTCPSameProcess(t *testing.T) {
	l := mixture(t, 120, 8, 2, 0.03, 52)
	m := loopbackCluster(t, 2)
	res, err := Run(bg, Source{Points: l.Points}, onExec(m, Config{K: 2, Seed: 53}))
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

// TestClusterMapReduceShippedAcrossProcesses runs DASC with workers in
// genuinely separate OS processes: the test re-executes its own binary
// as worker processes (the standard helper-process pattern), which —
// because the job factories carry everything through Conf and records —
// must produce the same clustering as the in-process driver.
func TestClusterMapReduceShippedAcrossProcesses(t *testing.T) {
	if os.Getenv("DASC_WORKER_HELPER") == "1" {
		// Helper mode: behave exactly like cmd/dascworker.
		if err := mapreduce.RunWorker(os.Getenv("DASC_MASTER_ADDR")); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}

	l := mixture(t, 150, 8, 3, 0.02, 54)
	cfg := Config{K: 3, Seed: 55}
	want, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	m, err := mapreduce.NewMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var procs []*exec.Cmd
	for i := 0; i < 2; i++ {
		cmd := exec.Command(exe, "-test.run", "TestClusterMapReduceShippedAcrossProcesses")
		cmd.Env = append(os.Environ(),
			"DASC_WORKER_HELPER=1",
			"DASC_MASTER_ADDR="+m.Addr(),
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
	}
	waitWorkers(t, m, 2)

	res, err := Run(bg, Source{Points: l.Points}, onExec(m, cfg))
	if err != nil {
		t.Fatal(err)
	}
	agree, err := metrics.Accuracy(want.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Fatalf("cross-process run disagrees with local: %v", agree)
	}
	m.Close()
	for _, p := range procs {
		if err := p.Wait(); err != nil {
			t.Fatalf("worker process: %v", err)
		}
	}
}

func waitWorkers(t testing.TB, m *mapreduce.Master, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.ConnectedWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// bucketRecord lays one 'B' bucket record out, row i being
// rows[i*dim:(i+1)*dim].
func bucketRecord(indices []int, dim int, rows []float64) []byte {
	var buf bytes.Buffer
	_ = mapreduce.WriteBucketRows(&buf, indices, dim, func(i int) []float64 { return rows[i*dim : (i+1)*dim] }) // a bytes.Buffer does not fail
	return buf.Bytes()
}

// TestShippedCodecs pins the record-carried source's stage-2 records
// (its only records: its stage 1 hashes in the driver). The driver holds
// one index list per bucket, its expander writes each as the raw 'B'
// record of those rows, exactly as long as announced, and a worker's
// bucketShape and openBucket give the rows back in list order, bit for
// bit; a misaligned or empty record, or one led by the retired embedded
// kind byte 'E', is refused, and so is a list past the last row.
func TestShippedCodecs(t *testing.T) {
	pts := matrix.NewDense(1027, 4)
	vals := []float64{1.5, -2.25, math.Copysign(0, -1), 1e-9}
	for i := range pts.Data() {
		pts.Data()[i] = vals[i%4] * float64(i+1)
	}
	x := (&rowSource{points: pts}).expander()
	worker := &rowSource{}
	if worker.expander() != nil {
		t.Fatal("a worker-side source expands records")
	}
	var records [][]byte
	for _, ids := range [][]int{rowSpan(0, 1024), {3, 4, 900, 1026}, {1026}} {
		ref := encodeIndices(ids)
		var buf bytes.Buffer
		if err := x.Expand(&buf, ref); err != nil || buf.Len() != x.Len(ref) {
			t.Fatalf("%d rows expanded to %d bytes of %d announced (%v)", len(ids), buf.Len(), x.Len(ref), err)
		}
		records = append(records, buf.Bytes())
		n, dim, err := worker.bucketShape(buf.Bytes())
		if err != nil || n != len(ids) || dim != pts.Cols() {
			t.Fatalf("%d rows shaped %d x %d (%v)", len(ids), n, dim, err)
		}
		b, err := worker.openBucket(buf.Bytes(), make([]float64, n*dim))
		if err != nil {
			t.Fatal(err)
		}
		for pos, p := range b.rows {
			if b.ids[pos] != ids[pos] {
				t.Fatalf("row %d arrived in place of %d", b.ids[pos], ids[pos])
			}
			for j, v := range pts.Row(ids[pos]) {
				if got := b.points.Row(p)[j]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("row %d col %d = %v, want %v", ids[pos], j, got, v)
				}
			}
		}
	}
	for name, value := range map[string][]byte{
		"misaligned": records[1][:len(records[1])-3],
		"empty":      nil,
		"embedded":   append([]byte{'E'}, records[2][1:]...),
	} {
		if _, _, err := worker.bucketShape(value); err == nil {
			t.Errorf("%s record shaped", name)
		}
		if _, err := worker.openBucket(value, make([]float64, 1024*4)); err == nil {
			t.Errorf("%s record opened", name)
		}
	}
	if err := x.Expand(io.Discard, encodeIndices([]int{0, pts.Rows()})); err == nil {
		t.Error("a list past the last row expanded")
	}
}

func TestShippedJobFactoriesValidateConf(t *testing.T) {
	if _, err := lshJobFromConf([]byte("garbage")); err == nil {
		t.Fatal("expected gob error")
	}
	blob, err := gobEncode(lshConf{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lshJobFromConf(blob); err == nil {
		t.Fatal("expected empty-conf error")
	}
	blob, err = gobEncode(lshConf{Tables: []lshTable{{Dims: []int{0, 1}, Thresholds: []float64{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lshJobFromConf(blob); err == nil {
		t.Fatal("expected a table with 2 dims and 1 threshold to be refused")
	}
	if _, err := clusterJobFromConf([]byte("garbage")); err == nil {
		t.Fatal("expected gob error")
	}
	blob, err = gobEncode(solveConf{Policy: solvePolicy{N: 0, Cols: 2, K: 1, Sigma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clusterJobFromConf(blob); err == nil {
		t.Fatal("expected invalid-conf error")
	}
}

// TestLSHJobRejectsShortRow: lsh.Hasher.Signature indexes a row
// unchecked, so a stage-1 mapper holds each shard row to the largest
// shipped dimension — and, since it emits only once its whole range is
// hashed, a range of short rows emits nothing.
func TestLSHJobRejectsShortRow(t *testing.T) {
	conf := lshConf{Tables: []lshTable{
		{Dims: []int{0}, Thresholds: []float64{0}},
		{Dims: []int{1, 3}, Thresholds: []float64{0, 0}},
	}}
	// mapRange maps the one row range of a shard directory of two equal
	// rows, width wide.
	mapRange := func(width int) (emitted int, err error) {
		pts := matrix.NewDense(2, width)
		for i := range pts.Data() {
			pts.Data()[i] = 1
		}
		src, err := openShardRows(writeShardDir(t, pts, 0))
		if err != nil {
			t.Fatal(err)
		}
		job, err := newLSHJob(src, conf)
		if err != nil {
			t.Fatal(err)
		}
		err = job.Map("0", src.lshInput()[0].Value, func(string, []byte) { emitted++ })
		return emitted, err
	}
	if emitted, err := mapRange(4); err != nil || emitted != 2 {
		t.Fatalf("two equal 4-wide rows: err = %v, %d records emitted, want one per table", err, emitted)
	}
	if emitted, err := mapRange(3); err == nil || emitted != 0 {
		t.Fatalf("3-wide rows under a hash on dimension 3: err = %v, %d records emitted", err, emitted)
	}
}

// TestLSHTaskWithoutDirFails: stage 1 runs only over shards, so a
// stage-1 task whose conf names no directory fails its job — on Local,
// where the task rebuilds its job from the conf as a worker does, and
// over TCP, where the worker's registered factory refuses the conf.
func TestLSHTaskWithoutDirFails(t *testing.T) {
	blob, err := gobEncode(lshConf{Tables: []lshTable{{Dims: []int{0}, Thresholds: []float64{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	job := &mapreduce.Job{
		Name:      "dasc-lsh",
		Conf:      blob,
		SplitSize: 1,
		Map: func(key string, value []byte, emit mapreduce.Emit) error {
			j, err := lshJobFromConf(blob)
			if err != nil {
				return err
			}
			return j.Map(key, value, emit)
		},
		Reduce:         mapreduce.IdentityReduceFunc,
		IdentityReduce: true,
	}
	input := []mapreduce.Pair{{Key: "0", Value: encodeRowRange(0, 1)}}
	for _, exec := range []mapreduce.Executor{&mapreduce.Local{}, loopbackCluster(t, 1)} {
		out, _, err := exec.Run(job, input)
		if err == nil || !strings.Contains(err.Error(), "names no shard directory") {
			t.Errorf("%T: %d records, err = %v; want the job refused for its conf", exec, len(out), err)
		}
	}
}
