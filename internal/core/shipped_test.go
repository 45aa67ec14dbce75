package core

import (
	"fmt"
	"math"
	"os"
	"os/exec"
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

// TestShippedCodecs pins the record-carried source's stage-1 records:
// the rows travel in blocks of blockRows, one map task each, and come
// back through eachRow in row order, bit for bit; a misaligned or empty
// block, or one led by the retired embedded kind byte 'E', is refused.
func TestShippedCodecs(t *testing.T) {
	pts := matrix.NewDense(blockRows+3, 4)
	vals := []float64{1.5, -2.25, math.Copysign(0, -1), 1e-9}
	for i := range pts.Data() {
		pts.Data()[i] = vals[i%4] * float64(i+1)
	}
	input, split := (&recordRows{points: pts}).lshInput()
	if split != 1 || len(input) != 2 {
		t.Fatalf("%d records in splits of %d, want 2 blocks of one task each", len(input), split)
	}
	worker := &recordRows{}
	next := 0
	for _, rec := range input {
		if err := worker.eachRow(rec.Value, func(idx int, row []float64) error {
			if idx != next {
				return fmt.Errorf("row %d arrived in place of %d", idx, next)
			}
			for j, v := range pts.Row(idx) {
				if math.Float64bits(row[j]) != math.Float64bits(v) {
					return fmt.Errorf("row %d col %d = %v, want %v", idx, j, row[j], v)
				}
			}
			next++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if next != pts.Rows() {
		t.Fatalf("%d of %d rows came back", next, pts.Rows())
	}
	for name, value := range map[string][]byte{
		"misaligned": input[1].Value[:len(input[1].Value)-3],
		"empty":      nil,
		"embedded":   append([]byte{'E'}, mapreduce.AppendBucketRows(nil, []int{0}, 1, []float64{1})[1:]...),
	} {
		if err := worker.eachRow(value, func(int, []float64) error { return nil }); err == nil {
			t.Errorf("%s block accepted", name)
		}
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

// TestLSHJobRejectsShortRow: rows reach a stage-1 mapper off the wire,
// and lsh.Hasher.Signature indexes them unchecked, so the mapper holds
// each to the largest shipped dimension — and, since it emits only once
// its whole record is hashed, a short block emits nothing.
func TestLSHJobRejectsShortRow(t *testing.T) {
	job, err := newLSHJob(&recordRows{}, lshConf{Tables: []lshTable{
		{Dims: []int{0}, Thresholds: []float64{0}},
		{Dims: []int{1, 3}, Thresholds: []float64{0, 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	block := func(width int) []byte {
		rows := make([]float64, 2*width)
		for i := range rows {
			rows[i] = 1
		}
		return mapreduce.AppendBucketRows(nil, []int{0, 1}, width, rows)
	}
	emitted := 0
	emit := func(string, []byte) { emitted++ }
	if err := job.Map("0", block(4), emit); err != nil || emitted != 2 {
		t.Fatalf("two equal 4-wide rows: err = %v, %d records emitted, want one per table", err, emitted)
	}
	emitted = 0
	if err := job.Map("1", block(3), emit); err == nil || emitted != 0 {
		t.Fatalf("3-wide rows under a hash on dimension 3: err = %v, %d records emitted", err, emitted)
	}
}
