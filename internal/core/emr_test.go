package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/emr"
	"repro/internal/lsh"
)

func TestEMRFlowStructure(t *testing.T) {
	l := mixture(t, 512, 16, 4, 0.05, 30)
	flow, part, err := EMRFlow(bg, l.Points, Config{K: 4, Seed: 31}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(flow.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(flow.Steps))
	}
	if flow.Steps[0].Name != "lsh-partition" || flow.Steps[1].Name != "spectral-clustering" {
		t.Fatalf("step names: %v %v", flow.Steps[0].Name, flow.Steps[1].Name)
	}
	if len(flow.Steps[1].Tasks) != part.NumBuckets() {
		t.Fatalf("cluster tasks %d != buckets %d", len(flow.Steps[1].Tasks), part.NumBuckets())
	}
	// Bucket memory must equal the 4*Ni^2 accounting.
	var mem int64
	for _, task := range flow.Steps[1].Tasks {
		mem += task.MemoryBytes
	}
	if mem != 4*part.ApproxGramEntries() {
		t.Fatalf("flow memory %d != 4*sumNi2 %d", mem, 4*part.ApproxGramEntries())
	}
}

func TestEMRFlowElasticityShape(t *testing.T) {
	// Table 3: doubling the node count roughly halves the total time
	// while memory stays constant. Linear scaling needs many more
	// bucket tasks than slots, so build the flow from a synthetic
	// 600-bucket partition (the real Wikipedia runs have thousands).
	part := syntheticPartition(600, 200)
	n := 0
	for _, s := range part.Sizes() {
		n += s
	}
	flow := BuildFlow(part, Config{K: 64}, n, 16, 50e-6)
	var prev *emr.FlowReport
	for _, nodes := range []int{16, 32, 64} {
		c, err := emr.NewCluster(nodes)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.RunJobFlow(flow)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			// The spectral-clustering step dominates the paper's runs
			// and must scale near-linearly; fixed-cost steps (single
			// collect task) keep TotalTime slightly sublinear.
			speedup := prev.Steps[1].Makespan / rep.Steps[1].Makespan
			if speedup < 1.6 || speedup > 2.4 {
				t.Fatalf("%d nodes: clustering speedup %v, want ~2", nodes, speedup)
			}
			if rep.TotalMemory != prev.TotalMemory {
				t.Fatalf("memory changed with node count: %d vs %d",
					rep.TotalMemory, prev.TotalMemory)
			}
		}
		prev = rep
	}
}

// syntheticPartition builds a partition of `buckets` buckets whose
// sizes jitter around meanSize, mimicking a large Wikipedia run.
func syntheticPartition(buckets, meanSize int) *lsh.Partition {
	p := &lsh.Partition{}
	idx := 0
	for b := 0; b < buckets; b++ {
		size := meanSize/2 + (b*7)%meanSize // deterministic skew
		if size < 1 {
			size = 1
		}
		indices := make([]int, size)
		for i := range indices {
			indices[i] = idx
			idx++
		}
		p.Buckets = append(p.Buckets, lsh.Bucket{Signature: uint64(b), Indices: indices})
	}
	return p
}

// TestEMRFlowDiskCosting pins the out-of-core cost model: spill budgets
// add 2x the framed record bytes per stage-1 task, sharded mode trades
// stage-1 memory for shard-read disk traffic, and the scheduler surfaces
// the aggregate through FlowReport.TotalDiskBytes.
func TestEMRFlowDiskCosting(t *testing.T) {
	part := syntheticPartition(40, 150)
	n := 0
	for _, s := range part.Sizes() {
		n += s
	}
	const dims = 16
	base := BuildFlow(part, Config{K: 8}, n, dims, 50e-6)
	spilled := BuildFlow(part, Config{K: 8, SpillBytes: 1 << 20}, n, dims, 50e-6)
	sharded := BuildFlowSharded(part, Config{K: 8, SpillBytes: 1 << 20}, n, dims, 50e-6)

	sum := func(f *emr.JobFlow, step int, get func(emr.Task) int64) int64 {
		var total int64
		for _, task := range f.Steps[step].Tasks {
			total += get(task)
		}
		return total
	}
	disk := func(task emr.Task) int64 { return task.DiskBytes }
	mem := func(task emr.Task) int64 { return task.MemoryBytes }

	for step := 0; step < 2; step++ {
		if got := sum(base, step, disk); got != 0 {
			t.Fatalf("in-memory flow step %d models %d disk bytes", step, got)
		}
		if got := sum(spilled, step, disk); got <= 0 {
			t.Fatalf("spilled flow step %d models no disk", step)
		}
	}
	// Spill bills exactly write + re-read of every framed stage-1 record.
	if got, want := sum(spilled, 0, disk), int64(2*spillRecordBytes*n); got != want {
		t.Fatalf("stage-1 spill disk = %d, want %d", got, want)
	}
	// Sharded mode adds the 8*dims*N input read on top of the spill...
	if got, want := sum(sharded, 0, disk), int64(2*spillRecordBytes*n)+int64(8*dims*n); got != want {
		t.Fatalf("sharded stage-1 disk = %d, want %d", got, want)
	}
	// ...and shrinks stage-1 memory from resident splits to the
	// streaming working set.
	if got, lim := sum(sharded, 0, mem), sum(base, 0, mem); got >= lim {
		t.Fatalf("sharded stage-1 memory %d not below resident %d", got, lim)
	}
	// Bucket hydration charges disk and memory for the demand-read rows.
	if got, want := sum(sharded, 1, disk)-sum(spilled, 1, disk), int64(8*dims*n); got != want {
		t.Fatalf("bucket hydration disk = %d, want %d", got, want)
	}
	// Disk time is folded into task cost at EMRDiskBandwidth.
	for i, task := range spilled.Steps[0].Tasks {
		want := base.Steps[0].Tasks[i].Cost + diskSeconds(task.DiskBytes)
		if task.Cost != want {
			t.Fatalf("task %d cost %v, want %v", i, task.Cost, want)
		}
	}

	c, err := emr.NewCluster(8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunJobFlow(sharded)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for step := range sharded.Steps {
		want += sum(sharded, step, disk)
	}
	if rep.TotalDiskBytes != want {
		t.Fatalf("report disk %d, want %d", rep.TotalDiskBytes, want)
	}
	repBase, err := c.RunJobFlow(base)
	if err != nil {
		t.Fatal(err)
	}
	if repBase.TotalDiskBytes != 0 {
		t.Fatalf("in-memory report disk = %d", repBase.TotalDiskBytes)
	}
}

func TestEMRFlowValidation(t *testing.T) {
	l := mixture(t, 16, 4, 2, 0.05, 34)
	if _, _, err := EMRFlow(bg, l.Points, Config{K: 99}, 0); err == nil {
		t.Fatal("expected config error")
	}
}

// TestBuildFlowPinned holds the flow model still across the move of its
// bucket costing into the solve stage: a raw Config and its resolved
// form build the same flow task for task, and the simulated totals of
// both builders, over spill x compression x embed, are the constants
// captured before the move (commit bbdcb14). The embed rows were
// re-pinned when the landmark class took the 24 embedded buckets whose
// 4·Ki fits EmbedDim 64: step-2 memory fell by exactly Σ 8·Ni·(64 − m)
// over them, 3 025 920 bytes, and disk did not move.
func TestBuildFlowPinned(t *testing.T) {
	part := syntheticPartition(40, 600)
	n := 0
	for _, s := range part.Sizes() {
		n += s
	}
	const dims = 16
	c, err := emr.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		sharded  bool
		spill    int64
		compress bool
		embedDim int
		want     string // TotalTime, TotalDiskBytes, step-2 TotalMemory
	}{
		{false, 0, false, 0, "101.654 0 31529840"},
		{false, 0, false, 64, "41.305800000000005 0 11044960"},
		{false, 0, true, 0, "101.654 0 31529840"},
		{false, 0, true, 64, "41.305800000000005 0 11044960"},
		{false, 1048576, false, 0, "101.65727026367188 1014280 31529840"},
		{false, 1048576, false, 64, "41.309055310058596 1014280 11044960"},
		{false, 1048576, true, 0, "101.65612558746339 405680 31529840"},
		{false, 1048576, true, 64, "41.30791589813232 405680 11044960"},
		{true, 0, false, 0, "101.66688818359376 4469760 33764720"},
		{true, 0, false, 64, "41.31844892578125 4469760 13279840"},
		{true, 0, true, 0, "101.66688818359376 4469760 33764720"},
		{true, 0, true, 64, "41.31844892578125 4469760 13279840"},
		{true, 1048576, false, 0, "101.67015844726562 5484040 33764720"},
		{true, 1048576, false, 64, "41.321704235839846 5484040 13279840"},
		{true, 1048576, true, 0, "101.66901377105712 4875440 33764720"},
		{true, 1048576, true, 64, "41.32056482391357 4875440 13279840"},
	} {
		raw := Config{K: 64, SpillBytes: fx.spill, Compression: fx.compress, EmbedDim: fx.embedDim}
		resolved, _, err := raw.resolve(n)
		if err != nil {
			t.Fatal(err)
		}
		build := BuildFlow
		if fx.sharded {
			build = BuildFlowSharded
		}
		flow := build(part, raw, n, dims, 0)
		if again := build(part, resolved, n, dims, 0); !reflect.DeepEqual(flow, again) {
			t.Errorf("%+v: the flow of the resolved config differs from the raw one's", fx)
		}
		rep, err := c.RunJobFlow(flow)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%v %d %d", rep.TotalTime, rep.TotalDiskBytes, rep.Steps[1].Schedule.TotalMemory); got != fx.want {
			t.Errorf("sharded=%v spill=%d compress=%v embed=%d: simulated %s, pinned %s",
				fx.sharded, fx.spill, fx.compress, fx.embedDim, got, fx.want)
		}
	}
	if flow := BuildFlow(part, Config{K: n + 1}, n, dims, 0); flow != nil {
		t.Error("a config that does not resolve must yield a nil flow")
	}
}
